package analysis

import (
	"go/ast"
	"go/types"
)

// Confine proves the goroutine-confinement discipline the live driver
// documents in prose: only the Run goroutine touches protocol state.
// A struct field or package var annotated `//mpq:confined` may be
// accessed only by code the run loop reaches and nothing else does; a
// function so annotated may additionally be called only from there.
// The run loop is rooted at `//mpq:entry` functions (the calling
// goroutine becomes the loop — live.Run) and at the confined functions,
// and flows down the intra-package call graph. Everything else roots
// at an exported unannotated function (callers are unknown) or a
// `go`-launched function or literal (it runs on a goroutine of its
// own). Unannotated members (channels, atomics, sync primitives) are
// the crossings and are not policed.
var Confine = &Analyzer{
	Name: "confine",
	Doc: "forbid code reachable outside the run loop (rooted at each //mpq:entry) " +
		"from touching what is marked //mpq:confined",
	Run: runConfine,
}

// reach says where a unit's code may run: on the run loop, elsewhere,
// or both. It is empty for code nothing reaches.
type reach uint8

const (
	onLoop    reach = 1 << iota // reachable from a loop root (annotations.loopRoot)
	elsewhere                   // reachable from an exported function or a go statement
)

// codeUnit is one analyzable code region with a single reach: a
// declared function body (minus go-launched literals) or one
// go-launched literal (always elsewhere).
type codeUnit struct {
	fn       *types.Func // nil for go-launched literals
	body     *ast.BlockStmt
	detached []*ast.FuncLit // go-launched literals excluded from this unit
	reach    reach
}

// reachGraph is the package's call graph with each unit's reach,
// shared by the confine and blocking analyzers.
type reachGraph struct {
	ann   *annotations
	units []*codeUnit
	byFn  map[*types.Func]*codeUnit
}

// reachGraph returns pkg's call graph with reaches, built on first
// use and shared by confine and blocking.
func (pkg *Package) reachGraph() *reachGraph {
	if pkg.graph == nil {
		pkg.graph = buildReachGraph(pkg)
	}
	return pkg.graph
}

// buildReachGraph constructs the units, seeds their reach, and
// propagates it down intra-package call edges to a fixpoint.
func buildReachGraph(pkg *Package) *reachGraph {
	g := &reachGraph{ann: pkg.annotations(), byFn: make(map[*types.Func]*codeUnit)}

	// Pass 1: one unit per declared function, plus one per go-launched
	// literal (those run on their own fresh goroutine: elsewhere).
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			unit := &codeUnit{fn: obj, body: fd.Body}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if gs, ok := n.(*ast.GoStmt); ok {
					if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
						unit.detached = append(unit.detached, lit)
					}
				}
				return true
			})
			g.units = append(g.units, unit)
			g.byFn[obj] = unit
		}
	}
	for _, u := range append([]*codeUnit(nil), g.units...) {
		for _, lit := range u.detached {
			g.units = append(g.units, &codeUnit{body: lit.Body, reach: elsewhere})
		}
	}

	// Pass 2: seed. Annotated functions are the run loop's roots;
	// exported unannotated functions may be called from any goroutine.
	for _, u := range g.units {
		if u.fn == nil {
			continue
		}
		switch {
		case g.ann.loopRoot[u.fn]:
			u.reach = onLoop
		case u.fn.Exported():
			u.reach = elsewhere
		}
	}

	// Pass 3: propagate caller reach to unannotated callees until a
	// fixpoint. Annotated functions are roots: caller reach stops
	// there. A `go`-launched named function runs elsewhere unless
	// annotated (the spawned goroutine has no caller discipline).
	edges := make(map[*types.Func][]*types.Func)
	for _, u := range g.units {
		callees := g.calleesOf(pkg, u)
		if u.fn != nil {
			edges[u.fn] = callees.called
		} else {
			// Detached literal: its callees run elsewhere.
			callees.spawned = append(callees.spawned, callees.called...)
		}
		for _, spawned := range callees.spawned {
			if !g.ann.loopRoot[spawned] {
				g.byFn[spawned].reach |= elsewhere
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, u := range g.units {
			for _, callee := range edges[u.fn] {
				if cu := g.byFn[callee]; !g.ann.loopRoot[callee] && cu.reach|u.reach != cu.reach {
					cu.reach |= u.reach
					changed = true
				}
			}
		}
	}
	return g
}

// calleeSet separates normal call/reference edges from go-spawned
// callees (which root their own goroutine).
type calleeSet struct {
	called  []*types.Func
	spawned []*types.Func
}

// walk visits the unit's own code in ast.Inspect order: its body minus
// the go-launched literals, which are units of their own. visit is
// never handed nil.
func (u *codeUnit) walk(visit func(ast.Node) bool) {
	ast.Inspect(u.body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		for _, lit := range u.detached {
			if n == ast.Node(lit) {
				return false
			}
		}
		return visit(n)
	})
}

// calleesOf collects the same-package functions with a body that a
// unit calls or references.
func (g *reachGraph) calleesOf(pkg *Package, u *codeUnit) calleeSet {
	var out calleeSet
	var goCalls []ast.Expr
	u.walk(func(n ast.Node) bool {
		if gs, ok := n.(*ast.GoStmt); ok {
			goCalls = append(goCalls, gs.Call.Fun)
		}
		var id *ast.Ident
		switch e := n.(type) {
		case *ast.Ident:
			id = e
		case *ast.SelectorExpr:
			id = e.Sel
		default:
			return true
		}
		fn, ok := pkg.Info.Uses[id].(*types.Func)
		if !ok || g.byFn[fn] == nil {
			return true
		}
		spawned := false
		for _, e := range goCalls {
			if usesIdent(e, id) {
				spawned = true
				break
			}
		}
		if spawned {
			out.spawned = append(out.spawned, fn)
		} else {
			out.called = append(out.called, fn)
		}
		return true
	})
	return out
}

// usesIdent reports whether id appears under e.
func usesIdent(e ast.Node, id *ast.Ident) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if n == ast.Node(id) {
			found = true
		}
		return !found
	})
	return found
}

func runConfine(pass *Pass) {
	g := pass.reachGraph()
	if len(g.ann.confined) == 0 {
		return // nothing confined in this package
	}
	for _, u := range g.units {
		if u.reach&elsewhere != 0 {
			g.checkUnit(pass, u)
		}
	}
}

// checkUnit flags accesses to confined members from a unit reachable
// outside the run loop. Units nothing reaches (unexported, never
// called) are skipped: nothing is known about the goroutine they run
// on, and they are dead code until a caller appears and gives them a
// reach.
func (g *reachGraph) checkUnit(pass *Pass, u *codeUnit) {
	// Composite-literal field keys (struct construction) are exempt:
	// the value is not yet shared when it is being built.
	literalKey := make(map[*ast.Ident]bool)
	u.walk(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				if v, ok := pass.Info.Uses[id].(*types.Var); ok && v.IsField() {
					literalKey[id] = true
				}
			}
		case *ast.Ident:
			obj := pass.Info.Uses[n]
			if literalKey[n] || !g.ann.confined[obj] {
				break
			}
			if _, fn := obj.(*types.Func); fn {
				pass.Reportf(n.Pos(),
					"confined function %s is called from code reachable outside the run loop", n.Name)
				break
			}
			pass.Reportf(n.Pos(),
				"confined member %s is accessed from code reachable outside the run loop; "+
					"cross with a channel or an atomic, or move the access into the run loop", n.Name)
		}
		return true
	})
}
