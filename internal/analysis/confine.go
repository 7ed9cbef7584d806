package analysis

import (
	"go/ast"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// anyDomain is the implicit domain of code that may run on any
// goroutine: exported functions without an //mpq: annotation (callers
// are unknown) and function literals launched with `go`.
const anyDomain = "any goroutine"

// runLoopDomain is the one domain name with extra semantics: the
// blocking analyzer forbids blocking operations inside it (see
// blocking.go). confine itself treats all domain names uniformly.
const runLoopDomain = "run-loop"

// Confine proves the goroutine-confinement discipline the live driver
// documents in prose: only the Run goroutine touches protocol state.
// A struct field annotated `//mpq:confined <domain>` may be accessed
// only by code whose computed domain set is exactly {domain}; a
// function so annotated may additionally be called only from that
// domain. Domains are rooted by `//mpq:entry <domain>` functions (the
// calling goroutine becomes the domain — live.Run roots run-loop, the
// socket readLoop roots reader) and flow down the intra-package call
// graph. Exported functions without an annotation root the implicit
// any-goroutine domain, as do `go`-launched function literals.
// Unannotated members (channels, atomics, sync primitives) are the
// cross-domain touch points and are not policed.
var Confine = &Analyzer{
	Name: "confine",
	Doc: "forbid access to //mpq:confined members from code reachable outside " +
		"their goroutine domain; domains root at //mpq:entry functions",
	Run: runConfine,
}

// domainUnit is one analyzable code region with a single domain set: a
// declared function body (minus go-launched literals) or one
// go-launched literal (always any-domain).
type domainUnit struct {
	fn       *types.Func // nil for go-launched literals
	body     *ast.BlockStmt
	detached []*ast.FuncLit // go-launched literals excluded from this unit
	domains  map[string]bool
}

// domainGraph is the package's call-graph-with-domains, shared by the
// confine and blocking analyzers.
type domainGraph struct {
	ann   *annotations
	units []*domainUnit
	byFn  map[*types.Func]*domainUnit
}

// domainGraph returns pkg's call-graph-with-domains, built on first
// use and shared by confine and blocking.
func (pkg *Package) domainGraph() *domainGraph {
	if pkg.graph == nil {
		pkg.graph = buildDomainGraph(pkg)
	}
	return pkg.graph
}

// buildDomainGraph constructs the units, seeds their domains, and
// propagates domains down intra-package call edges to a fixpoint.
func buildDomainGraph(pkg *Package) *domainGraph {
	g := &domainGraph{ann: pkg.annotations(), byFn: make(map[*types.Func]*domainUnit)}

	// Pass 1: one unit per declared function, plus one per go-launched
	// literal (those run on their own fresh goroutine: any-domain).
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
			unit := &domainUnit{fn: obj, body: fd.Body, domains: make(map[string]bool)}
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
	for _, u := range append([]*domainUnit(nil), g.units...) {
		for _, lit := range u.detached {
			g.units = append(g.units, &domainUnit{
				body:    lit.Body,
				domains: map[string]bool{anyDomain: true},
			})
		}
	}

	// Pass 2: seed domains. Annotated functions are roots; exported
	// unannotated functions may be called from any goroutine.
	for _, u := range g.units {
		if u.fn == nil {
			continue
		}
		switch {
		case g.ann.funcDomain[u.fn] != "":
			u.domains[g.ann.funcDomain[u.fn]] = true
		case g.ann.funcEntry[u.fn] != "":
			u.domains[g.ann.funcEntry[u.fn]] = true
		case u.fn.Exported():
			u.domains[anyDomain] = true
		}
	}

	// Pass 3: propagate caller domains to unannotated callees until a
	// fixpoint. Annotated functions are roots: caller domains stop
	// there. A `go`-launched named function roots any-domain unless
	// annotated (the spawned goroutine has no caller discipline).
	edges := make(map[*types.Func][]*types.Func)
	for _, u := range g.units {
		callees := g.calleesOf(pkg, u)
		if u.fn != nil {
			edges[u.fn] = callees.called
		} else {
			// Detached literal: its callees inherit any-domain.
			for _, callee := range callees.called {
				if uu := g.byFn[callee]; uu != nil && !g.isRoot(callee) {
					uu.domains[anyDomain] = true
				}
			}
		}
		for _, spawned := range callees.spawned {
			if uu := g.byFn[spawned]; uu != nil && !g.isRoot(spawned) {
				uu.domains[anyDomain] = true
			}
		}
	}
	changed := true
	for changed {
		changed = false
		for _, u := range g.units {
			if u.fn == nil {
				continue
			}
			for _, callee := range edges[u.fn] {
				if g.isRoot(callee) {
					continue
				}
				cu := g.byFn[callee]
				if cu == nil {
					continue
				}
				n := len(cu.domains)
				maps.Copy(cu.domains, u.domains)
				changed = changed || len(cu.domains) != n
			}
		}
	}
	return g
}

// isRoot reports whether fn's domain is fixed by an annotation (caller
// domains do not flow into it).
func (g *domainGraph) isRoot(fn *types.Func) bool {
	return g.ann.funcDomain[fn] != "" || g.ann.funcEntry[fn] != ""
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
func (u *domainUnit) walk(visit func(ast.Node) bool) {
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

// calleesOf collects the same-package functions a unit calls or
// references.
func (g *domainGraph) calleesOf(pkg *Package, u *domainUnit) calleeSet {
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
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkg.PkgPath {
			return true
		}
		if g.byFn[fn] == nil {
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

// domainsOutside returns the sorted domains in set other than want, or
// nil if the set is empty or exactly {want}.
func domainsOutside(set map[string]bool, want string) []string {
	keys := make([]string, 0, len(set))
	for d := range set {
		keys = append(keys, d)
	}
	sort.Strings(keys)
	out := keys[:0]
	for _, d := range keys {
		if d != want {
			out = append(out, d)
		}
	}
	return out
}

func runConfine(pass *Pass) {
	g := pass.domainGraph()
	if len(g.ann.fieldDomain) == 0 && len(g.ann.funcDomain) == 0 {
		return // nothing confined in this package
	}
	for _, u := range g.units {
		g.checkUnit(pass, u)
	}
}

// checkUnit flags accesses to confined members from a unit whose
// domain set reaches outside the member's domain. Units with an empty
// domain set (unexported, never called) are skipped: nothing is known
// about the goroutine they run on, and they are dead code until a
// caller appears and gives them a domain.
func (g *domainGraph) checkUnit(pass *Pass, u *domainUnit) {
	if len(u.domains) == 0 {
		return
	}
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
			if !literalKey[n] {
				g.checkIdent(pass, u, n)
			}
		}
		return true
	})
}

// checkIdent applies the confinement rules to one identifier use.
func (g *domainGraph) checkIdent(pass *Pass, u *domainUnit, id *ast.Ident) {
	obj := pass.Info.Uses[id]
	if obj == nil {
		return
	}
	if dom, confined := g.ann.fieldDomain[obj]; confined {
		if outside := domainsOutside(u.domains, dom); len(outside) > 0 {
			pass.Reportf(id.Pos(),
				"confined member %s (domain %s) is accessed from code reachable outside its domain (%s); "+
					"cross with a channel or an atomic, or move the access into the %s domain",
				id.Name, dom, strings.Join(outside, ", "), dom)
		}
		return
	}
	if fn, isFn := obj.(*types.Func); isFn {
		if dom := g.ann.funcDomain[fn]; dom != "" {
			if outside := domainsOutside(u.domains, dom); len(outside) > 0 {
				pass.Reportf(id.Pos(),
					"confined function %s (domain %s) is called from code reachable outside its domain (%s)",
					fn.Name(), dom, strings.Join(outside, ", "))
			}
		}
	}
}
