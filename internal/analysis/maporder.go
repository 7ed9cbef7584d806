package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `range` over a map whose loop body lets Go's
// randomized iteration order escape into simulation-visible state:
// scheduling events, sending through netem, appending to a slice that
// outlives the loop, or accumulating floating-point sums (float
// addition is not associative, so even an order-independent *set* of
// contributions yields order-dependent bits). The sanctioned pattern —
// collect the keys, sort them, iterate the sorted slice — is
// recognized and not flagged.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "forbid map iteration whose order leaks into schedules, results, " +
		"frames or float accumulations; sort the keys first",
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) {
	for _, f := range pass.Files {
		funcBodies(f, func(fn ast.Node, body *ast.BlockStmt) {
			checkMapRanges(pass, fn, body)
		})
	}
}

// checkMapRanges inspects one function body. Nested function literals
// are skipped here (funcBodies visits them separately) so each range
// statement is judged against its own enclosing function.
func checkMapRanges(pass *Pass, fn ast.Node, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.Info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if reason := orderLeak(pass, fn, rng); reason != "" {
			pass.Reportf(rng.Pos(), "map iteration order leaks into %s; iterate sorted keys instead", reason)
		}
		return true
	})
}

// orderLeak classifies the hazardous effect of a map-range body, or
// returns "" when the body is order-insensitive (or the sanctioned
// collect-keys-then-sort idiom).
func orderLeak(pass *Pass, fn ast.Node, rng *ast.RangeStmt) string {
	info := pass.Info
	if isKeyCollectThenSort(pass, fn, rng) {
		return ""
	}
	var reason string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// Scheduling: anything that enqueues work on the virtual
			// clock or re-arms a timer fixes an event order.
			if methodOn(info, n, simPkgPath, "Clock", "At", "After") ||
				methodOn(info, n, simPkgPath, "Timer", "Reset", "ResetAfter") {
				reason = "event scheduling"
				return false
			}
			// Transmission: handing datagrams to netem (directly or
			// via a Link) serializes them onto the wire in loop order.
			if methodOn(info, n, netemPkgPath, "Network", "Send") ||
				methodOn(info, n, netemPkgPath, "Link", "Send") {
				reason = "frame/datagram transmission"
				return false
			}
			// append to a slice declared outside the loop: the result
			// ordering becomes the map's iteration order.
			if isBuiltinAppend(info, n) {
				// flag when the destination outlives the loop.
				if len(n.Args) > 0 {
					if obj := identObj(info, n.Args[0]); obj != nil && !declaredWithin(obj, rng) {
						reason = "a slice that outlives the loop"
						return false
					}
				}
			}
		case *ast.AssignStmt:
			if r := floatAccumulation(info, n, rng); r != "" {
				reason = r
				return false
			}
		}
		return true
	})
	return reason
}

// isBuiltinAppend reports whether call invokes the builtin append (a
// shadowing user-defined append resolves to a non-Builtin object).
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin
}

// floatAccumulation reports float += / -= / *= / /= (or x = x + ...)
// onto a variable that outlives the loop.
func floatAccumulation(info *types.Info, as *ast.AssignStmt, rng *ast.RangeStmt) string {
	accumulating := false
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		accumulating = true
	case token.ASSIGN:
		// x = x + e / x = e + x style self-reference.
		if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if obj := identObj(info, as.Lhs[0]); obj != nil {
				if bin, ok := ast.Unparen(as.Rhs[0]).(*ast.BinaryExpr); ok {
					if lo := identObj(info, bin.X); lo == obj {
						accumulating = true
					} else if ro := identObj(info, bin.Y); ro == obj {
						accumulating = true
					}
				}
			}
		}
	}
	if !accumulating {
		return ""
	}
	for _, lhs := range as.Lhs {
		t := info.TypeOf(lhs)
		if t == nil {
			continue
		}
		basic, ok := t.Underlying().(*types.Basic)
		if !ok || basic.Info()&types.IsFloat == 0 {
			continue
		}
		if obj := identObj(info, lhs); obj != nil && declaredWithin(obj, rng) {
			continue // loop-local scratch, order can't escape
		}
		return "a floating-point accumulation (float addition is order-sensitive)"
	}
	return ""
}

// isKeyCollectThenSort recognizes the sanctioned determinization idiom:
//
//	for k := range m { keys = append(keys, k) }
//	sort.Slice(keys, ...)            // or slices.Sort(keys), etc.
//
// The body must be exactly one append of the key variable, and the
// destination slice must later be passed to a sort in the same
// function.
func isKeyCollectThenSort(pass *Pass, fn ast.Node, rng *ast.RangeStmt) bool {
	info := pass.Info
	if len(rng.Body.List) != 1 {
		return false
	}
	as, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	if !isBuiltinAppend(info, call) {
		return false
	}
	if len(call.Args) != 2 {
		return false
	}
	keyObj := identObj(info, rng.Key)
	if keyObj == nil || identObj(info, call.Args[1]) != keyObj {
		return false
	}
	dest := identObj(info, as.Lhs[0])
	if dest == nil || identObj(info, call.Args[0]) != dest {
		return false
	}
	// Look for a later sort call over dest anywhere in the function.
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := info.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		switch obj.Pkg().Path() {
		case "sort", "slices":
			for _, arg := range call.Args {
				if usesObject(info, arg, dest) {
					sorted = true
					return false
				}
			}
		}
		return true
	})
	return sorted
}
