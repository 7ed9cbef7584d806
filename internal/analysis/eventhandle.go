package analysis

import (
	"go/ast"
	"go/types"
)

// EventHandle enforces the sim.Event pooling contract: once an event
// fires (or is discarded after cancellation) the Clock recycles its
// storage, so an *Event handle is only valid until the event runs.
// sim.Timer is the one sanctioned holder — it drops its handle in the
// fire callback. Outside package sim, code must therefore not park an
// *sim.Event anywhere that outlives the current call: no struct
// fields, no globals, no map/slice elements, no returns, no channel
// sends. Locals are fine (`ev := clock.At(...); ev.Cancel()` within
// one activation cannot observe a recycled event).
var EventHandle = &Analyzer{
	Name: "eventhandle",
	Doc: "forbid holding *sim.Event handles beyond the current call; " +
		"only sim.Timer may own re-armable handles",
	Run: runEventHandle,
}

func runEventHandle(pass *Pass) {
	if pass.PkgPath == simPkgPath {
		return // the pool implementation and Timer live here
	}
	info := pass.Info
	isEvent := func(t types.Type) bool { return namedFromPkg(t, simPkgPath, "Event") }
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if isEvent(info.TypeOf(field.Type)) {
						pass.Reportf(field.Pos(),
							"struct field of type *sim.Event holds a poolable handle; use sim.Timer")
					}
				}
			case *ast.FuncDecl:
				if n.Type.Results != nil {
					for _, res := range n.Type.Results.List {
						if isEvent(info.TypeOf(res.Type)) {
							pass.Reportf(res.Pos(),
								"returning *sim.Event hands out a handle that dies when the event fires; use sim.Timer")
						}
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if !isEscapingLValue(info, lhs) {
						continue
					}
					var rhs ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					} else if len(n.Rhs) == 1 {
						rhs = n.Rhs[0]
					}
					if rhs != nil && isEvent(info.TypeOf(rhs)) {
						pass.Reportf(rhs.Pos(),
							"storing *sim.Event in a field/map/global outlives the event; use sim.Timer")
					}
				}
			case *ast.SendStmt:
				if isEvent(info.TypeOf(n.Value)) {
					pass.Reportf(n.Value.Pos(),
						"sending *sim.Event on a channel lets the handle outlive the event; use sim.Timer")
				}
			}
			return true
		})
	}
}

// isEscapingLValue reports whether assigning to lhs stores the value
// beyond function-local lifetime: a struct field or index expression,
// or a package-level variable.
func isEscapingLValue(info *types.Info, lhs ast.Expr) bool {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		return true // *p = ev writes through a pointer of unknown origin
	case *ast.Ident:
		obj := identObj(info, l)
		if v, ok := obj.(*types.Var); ok {
			return v.Parent() == v.Pkg().Scope() // package-level var
		}
	}
	return false
}
