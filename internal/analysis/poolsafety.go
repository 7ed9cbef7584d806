package analysis

import (
	"go/ast"
	"go/types"
)

// PoolSafety enforces the lifetime rule of the wire package's buffer
// pool: after wire.PutPacketBuf took b, the function must not touch b
// again, nor any variable sharing its backing array (`view := b[:n]`
// dies with b) — the buffer is back in the pool and may already be
// someone else's packet. A second Put is a use. The check is
// flow-insensitive: any syntactic use after a non-deferred Put in the
// same function is flagged (a deferred Put runs last and is exempt).
var PoolSafety = &Analyzer{
	Name: "poolsafety",
	Doc:  "forbid use of a pooled packet buffer, or of any slice of it, after PutPacketBuf",
	Run:  runPoolSafety,
}

func runPoolSafety(pass *Pass) {
	if pass.PkgPath == wirePkgPath {
		return // the pool's own implementation handles raw buffers
	}
	for _, f := range pass.Files {
		funcBodies(f, func(_ ast.Node, body *ast.BlockStmt) {
			checkUseAfterPut(pass, body)
		})
	}
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
	info := pass.Info
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
