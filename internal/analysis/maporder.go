package analysis

import (
	"go/ast"
	"go/types"
)

// MapOrder flags every `range` over a map. Go randomizes map iteration
// order, and whether a loop body lets that order escape into
// simulation-visible state is not something a syntactic check can
// decide: a method call may send a packet, a callback may schedule an
// event, an append or a float sum fixes the order in its result. So the
// rule is structural: a map is ranged over only in two shapes, both
// order-insensitive by construction —
//
//	for k := range m { keys = append(keys, k) }; sort.X(keys)  // then iterate keys
//	for k := range m { delete(m, k) }                          // clear m
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "forbid ranging over a map except to collect its keys for sorting " +
		"or to clear it",
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
		if !isKeyCollectThenSort(pass, fn, rng) && !isMapClear(pass.Info, rng) {
			pass.Reportf(rng.Pos(), "range over a map has a random order; "+
				"collect and sort its keys, then iterate the sorted slice")
		}
		return true
	})
}

// isBuiltin reports whether call invokes the builtin name (a shadowing
// user-defined function resolves to a non-Builtin object).
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin
}

// isMapClear recognizes `for k := range m { delete(m, k) }`: the body is
// exactly one delete of the key variable from the ranged map.
func isMapClear(info *types.Info, rng *ast.RangeStmt) bool {
	if rng.Value != nil || len(rng.Body.List) != 1 {
		return false
	}
	stmt, ok := rng.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := stmt.X.(*ast.CallExpr)
	if !ok || !isBuiltin(info, call, "delete") || len(call.Args) != 2 {
		return false
	}
	keyObj := identObj(info, rng.Key)
	return keyObj != nil && identObj(info, call.Args[1]) == keyObj &&
		types.ExprString(call.Args[0]) == types.ExprString(rng.X)
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
	if !isBuiltin(info, call, "append") {
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
