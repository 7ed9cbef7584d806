package analysis

import (
	"go/ast"
	"go/types"
)

// PoolSafety enforces the two lifetime rules of the wire package's
// buffer pool (PR 3's allocation diet made both load-bearing):
//
//  1. After wire.PutPacketBuf took b, the function must not touch b
//     again, nor any variable sharing its backing array
//     (`view := b[:n]` dies with b): the buffer is back in the pool
//     and may already be someone else's packet. A second Put is a
//     use. The check is flow-insensitive — any syntactic use after a
//     non-deferred Put in the same function is flagged (a deferred
//     Put runs last and is exempt).
//
//  2. A packet from wire.DecodeBorrowed aliases the input buffer, so
//     it must be consumed synchronously inside the handler: storing it
//     in a field/map/global, capturing it in a deferred or scheduled
//     closure, or returning it lets the alias outlive the datagram
//     delivery and read recycled bytes.
var PoolSafety = &Analyzer{
	Name: "poolsafety",
	Doc: "forbid use of pooled packet buffers after PutPacketBuf and any " +
		"escape of DecodeBorrowed results from the enclosing handler",
	Run: runPoolSafety,
}

func runPoolSafety(pass *Pass) (any, error) {
	if pass.PkgPath == wirePkgPath {
		return nil, nil // the pool's own implementation handles raw buffers
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset.Position(f.Pos()).Filename) {
			continue
		}
		funcBodies(f, func(fn ast.Node, body *ast.BlockStmt) {
			checkUseAfterPut(pass, body)
			checkBorrowEscapes(pass, body)
		})
	}
	return nil, nil
}

// baseIdentObj resolves e to the object of its base identifier,
// looking through parens and slice expressions (b, b[:n] → b).
func baseIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			return identObj(info, x)
		default:
			return nil
		}
	}
}

// aliasRoot groups the variables of one function body that may share a
// backing array — `view := b[:n]` (or `b2 := b`) puts view in b's
// group — and returns the function resolving a variable to its group's
// representative (union-find, so chains and reassignments merge).
func aliasRoot(info *types.Info, body *ast.BlockStmt) func(types.Object) types.Object {
	parent := make(map[types.Object]types.Object)
	find := func(o types.Object) types.Object {
		for p := parent[o]; p != nil; p = parent[o] {
			o = p
		}
		return o
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			lo, ro := identObj(info, as.Lhs[i]), baseIdentObj(info, rhs)
			if lo == nil || ro == nil {
				continue
			}
			if l, r := find(lo), find(ro); l != r {
				parent[l] = r
			}
		}
		return true
	})
	return find
}

// checkUseAfterPut flags identifier uses of b, or of any variable in
// b's alias group, after wire.PutPacketBuf took b. A second Put of the
// group is a use, so double puts are caught too.
func checkUseAfterPut(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	// Collect (buffer put, position after which its group is dead).
	type putCall struct {
		obj types.Object
		end ast.Node
	}
	var puts []putCall
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.DeferStmt); ok {
			return false // deferred Put runs on exit; later uses are fine
		}
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false // nested function: checked on its own
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !pkgFunc(info, call, wirePkgPath, "PutPacketBuf") || len(call.Args) != 1 {
			return true
		}
		if obj := baseIdentObj(info, call.Args[0]); obj != nil {
			puts = append(puts, putCall{obj, call})
		}
		return true
	})
	if len(puts) == 0 {
		return
	}
	canon := aliasRoot(info, body)
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		for _, p := range puts {
			if canon(obj) == canon(p.obj) && id.Pos() > p.end.End() {
				pass.Reportf(id.Pos(),
					"%s is used after wire.PutPacketBuf returned %s to the pool", id.Name, p.obj.Name())
				return true
			}
		}
		return true
	})
}

// checkBorrowEscapes flags escapes of wire.DecodeBorrowed results.
func checkBorrowEscapes(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	// Find `pkt, err := wire.DecodeBorrowed(...)` bindings.
	borrowed := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !pkgFunc(info, call, wirePkgPath, "DecodeBorrowed") {
			return true
		}
		if len(as.Lhs) > 0 {
			if obj := identObj(info, as.Lhs[0]); obj != nil {
				borrowed[obj] = true
			}
		}
		return true
	})
	if len(borrowed) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n.Body != body {
				return false
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if mayCarryAlias(info, res) {
					if obj := capturedBorrow(info, res, borrowed); obj != nil {
						pass.Reportf(res.Pos(),
							"returning %s lets a DecodeBorrowed alias outlive the handler", obj.Name())
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if !isEscapingLValue(info, lhs) {
					continue
				}
				// Match the RHS feeding this LHS (n:n or n:1 forms).
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if rhs == nil || !mayCarryAlias(info, rhs) {
					continue
				}
				if obj := capturedBorrow(info, rhs, borrowed); obj != nil {
					pass.Reportf(rhs.Pos(),
						"storing %s in a field/map/global lets a DecodeBorrowed alias outlive the handler", obj.Name())
				}
			}
		case *ast.DeferStmt:
			reportClosureCapture(pass, n.Call, borrowed, "a deferred closure")
		case *ast.GoStmt:
			reportClosureCapture(pass, n.Call, borrowed, "a goroutine")
		case *ast.CallExpr:
			if methodOn(info, n, simPkgPath, "Clock", "At", "After") ||
				methodOn(info, n, simPkgPath, "Timer", "Reset", "ResetAfter") {
				reportClosureCapture(pass, n, borrowed, "a scheduled closure")
			}
		}
		return true
	})
}

// mayCarryAlias reports whether a value of expr's type can hold a
// reference into the borrowed buffer. Basic scalars (int from len(),
// bool from a nil check, a copied string) cannot, so deriving them
// from a borrowed packet and letting them escape is safe.
func mayCarryAlias(info *types.Info, expr ast.Expr) bool {
	t := info.TypeOf(expr)
	if t == nil {
		return true
	}
	_, basic := t.Underlying().(*types.Basic)
	return !basic
}

// capturedBorrow returns a borrowed object referenced by expr, or nil.
func capturedBorrow(info *types.Info, expr ast.Node, borrowed map[types.Object]bool) types.Object {
	var found types.Object
	ast.Inspect(expr, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && borrowed[obj] {
				found = obj
			}
		}
		return found == nil
	})
	return found
}

// isEscapingLValue reports whether assigning to lhs stores the value
// beyond function-local lifetime: a struct field or index expression,
// or a package-level variable.
func isEscapingLValue(info *types.Info, lhs ast.Expr) bool {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		return true // *p = pkt writes through a pointer of unknown origin
	case *ast.Ident:
		obj := identObj(info, l)
		if v, ok := obj.(*types.Var); ok {
			return v.Parent() == v.Pkg().Scope() // package-level var
		}
	}
	return false
}

// reportClosureCapture flags function-literal arguments of call that
// capture a borrowed packet.
func reportClosureCapture(pass *Pass, call *ast.CallExpr, borrowed map[types.Object]bool, what string) {
	// `defer func(){...}()` carries the literal as call.Fun;
	// `clock.After(d, func(){...})` carries it in call.Args.
	exprs := append([]ast.Expr{call.Fun}, call.Args...)
	for _, arg := range exprs {
		lit, ok := ast.Unparen(arg).(*ast.FuncLit)
		if !ok {
			continue
		}
		if obj := capturedBorrow(pass.TypesInfo, lit.Body, borrowed); obj != nil {
			pass.Reportf(lit.Pos(),
				"%s captures %s, letting a DecodeBorrowed alias outlive the handler", what, obj.Name())
		}
	}
}
