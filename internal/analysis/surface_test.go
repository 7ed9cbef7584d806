package analysis_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"mpquic/internal/analysis"
	"mpquic/internal/analysis/analysistest"
)

// surfaceKeep names each exported identifier that no non-test code of
// the module (nor bench/, its own module) uses, and each interface
// method nothing calls through its interface, with the user that keeps
// it anyway. A key is "<import path>.<name>" or
// "<import path>.<type>.<method>".
var surfaceKeep = map[string]string{
	// The root facade's vocabulary, which README and OBSERVABILITY.md
	// document for programs outside the module.
	"mpquic.AbortError":                                "README: what Download returns when the connection dies (errors.As)",
	"mpquic.ErrTimeout":                                "README: what Download returns past its deadline (errors.Is)",
	"mpquic.CCCubic":                                   "facade: Config.CC values, with CCOlia, CCReno and CCLia",
	"mpquic.CCLia":                                     "facade: Config.CC values (DESIGN.md's LIA row)",
	"mpquic.CCOlia":                                    "facade: Config.CC values",
	"mpquic.CCReno":                                    "facade: Config.CC values",
	"mpquic.Event":                                     "facade: the type a program's Tracer.Trace method names",
	"mpquic.Fabric.Close":                              "README: the backend-independent API, which fabric_test.go runs over both backends",
	"mpquic.Fabric.Dial":                               "README: the backend-independent API",
	"mpquic.Fabric.Download":                           "README: the backend-independent API",
	"mpquic.Fabric.DownloadWith":                       "README: the backend-independent API",
	"mpquic.Fabric.Listen":                             "README: the backend-independent API",
	"mpquic.Fabric.Serve":                              "README: the backend-independent API",
	"mpquic.Fabric.ServeGet":                           "README: the backend-independent API",
	"mpquic.SchedLowestRTT":                            "facade: Config.Scheduler values, with the SchedLowestRTTNoDup examples/schedulers sets",
	"mpquic.Path":                                      "facade: the type Conn.Paths returns",
	"mpquic.Stream":                                    "facade: the type Conn.OpenStream returns",
	"mpquic.ReqRespSample":                             "facade: the sample type ReqRespClient (StartRequestTrain) records",
	"mpquic.Network.ServerAddr":                        "facade: the address a program outside the module dials or scripts against",
	"mpquic.Network.SetLinkTracer":                     "README and OBSERVABILITY.md: tracing the emulated links",
	"mpquic.NewQlogTracer":                             "README and OBSERVABILITY.md: writing a qlog trace",
	"mpquic/internal/analysis/analysistest.Run":        "the analyzer tests' harness",
	"mpquic/internal/live.Driver.PendingIngress":       "internal/perf's live allocation test and the live ingress tests watch bursts queue up",
	"mpquic/internal/netem.HandlerFunc":                "the handler adapter the netem, core and mptcpsim tests register",
	"mpquic/internal/netem.Link.Config":                "the dynamics tests read a link's current rate after each change",
	"mpquic/internal/netem.Link.QueueCapacityBytes":    "the dynamics tests check that a rate change re-derives the queue bound",
	"mpquic/internal/perf.RaceEnabled":                 "timing tests in recovery and perf skip under -race; a build tag sets it, so no _test.go file can",
	"mpquic/internal/perf.SamplePacket":                "the one packet every allocation budget in internal/perf is set on",
	"mpquic/internal/sim.Clock.Pending":                "internal/perf's event-queue occupancy test and the clock's model test",
	"mpquic/internal/trace.NewCounter":                 "the netem and dynamics tests count link events with it",
	"mpquic/internal/trace.SeriesRecorder.EncodeJSONL": "the sampled series' JSONL form, pinned byte-reproducible by the expdesign tests",
	"mpquic/internal/wire.AckFrame.Validate":           "FuzzDecode's oracle: every ACK the decoder accepts must validate",
	"mpquic/internal/wire.PacketPool.Len":              "netem's carrier tests count the carriers back in the pool",
}

// fieldKeep names each struct field that non-test code writes, no
// non-test code reads and no json tag exports, and the reader that
// keeps it anyway. A key is "<import path>.<type>.<field>".
var fieldKeep = map[string]string{
	"mpquic/internal/analysis.Package.Types":         "TestProductionSurface walks each package's scope and imports",
	"mpquic/internal/core.Listener.strayDrops":       "core_test counts stray packets through export_test.go",
	"mpquic/internal/mptcpsim.Stats.Penalizations":   "the mptcpsim tests check that penalization fires, and only when it should",
	"mpquic/internal/mptcpsim.Stats.Reinjections":    "the mptcpsim tests check that reinjection fires",
	"mpquic/internal/mptcpsim.Subflow.DataBytesSent": "the mptcpsim tests check that every subflow carries data",
	"mpquic/internal/tcpsim.Stats.FastRetransmit":    "the tcpsim tests check that fast retransmit fires",
}

// TestProductionSurface fails on a declaration that only tests need
// and that surfaceKeep or fieldKeep does not justify, and on a
// keep-list entry that is no longer needed. It checks three kinds:
//   - an exported package-level name or method must be used by non-test
//     code of the module or of bench/;
//   - a method of an interface the module declares must be called
//     through that interface, or through a type parameter it constrains;
//   - a struct field that non-test code writes (an assignment, an
//     increment or a composite-literal key) must be read by non-test
//     code or carry a json tag.
//
// Uses are objects go/types resolves over the non-test files of the
// module and of bench/, its own module, which builds against this one
// through its replace directive. A receiver does not use its type. A
// concrete method is reached through an interface it satisfies: one
// the module declares or one of stdInterfaces, where a package sees
// both, an anonymous one a type assertion names, or the interface
// parameter a call passes it for.
func TestProductionSurface(t *testing.T) {
	root := analysistest.ModuleRoot(t)
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := analysis.Load(filepath.Join(root, "bench"), ".")
	if err != nil {
		t.Fatal(err)
	}
	s := &surface{
		local: make(map[string]bool), used: make(map[string]bool),
		read: make(map[string]bool), written: make(map[string]bool),
		fields: make(map[*types.Var]string), walked: make(map[*types.Package]bool),
	}
	for _, p := range pkgs {
		s.local[p.PkgPath] = true
	}
	for _, p := range append(pkgs, bench...) {
		s.scan(p)
	}

	const (
		testOnly  = "is exported but only tests use it: delete it, let its tests read unexported state, or add it to surfaceKeep with its user"
		uncalled  = "is never called through its interface: drop it from the interface, or add it to surfaceKeep with its caller"
		writeOnly = "is written but only tests read it: delete it, let its tests read unexported state, or add it to fieldKeep with its reader"
	)
	flagged := make(map[string]string)
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !s.used[surfaceKey(obj)] {
				flagged[surfaceKey(obj)] = testOnly
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n := tn.Type().(*types.Named)
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); m.Exported() && !s.used[surfaceKey(m)] {
					flagged[surfaceKey(m)] = testOnly
				}
			}
			switch u := n.Underlying().(type) {
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if k := surfaceKey(u.ExplicitMethod(i)); !s.used[k] {
						flagged[k] = uncalled
					}
				}
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					k := s.fieldKey(u.Field(i))
					if !u.Field(i).Embedded() && s.written[k] && !s.read[k] && reflect.StructTag(u.Tag(i)).Get("json") == "" {
						flagged[k] = writeOnly
					}
				}
			}
		}
	}
	keys := make([]string, 0, len(flagged))
	for k := range flagged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, ok := surfaceKeep[k]; !ok {
			if _, ok := fieldKeep[k]; !ok {
				t.Errorf("%s %s", k, flagged[k])
			}
		}
	}
	for _, keep := range []map[string]string{surfaceKeep, fieldKeep} {
		for k := range keep {
			if _, ok := flagged[k]; !ok {
				t.Errorf("a keep-list names %s, which is gone or now has a non-test user: drop the entry", k)
			}
		}
	}
}

// surface accumulates, over every non-test package, what production
// code uses.
type surface struct {
	local         map[string]bool // the module's import paths
	used          map[string]bool // surfaceKeys used, or called through their interface
	read, written map[string]bool // fieldKeys
	fields        map[*types.Var]string
	walked        map[*types.Package]bool
}

// scan records p's uses: names, reads and writes of fields, and the
// methods its interfaces reach.
func (s *surface) scan(p *analysis.Package) {
	recv := make(map[*ast.Ident]bool)
	written := make(map[*ast.Ident]bool)
	write := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[sel.Sel] = true
		}
	}
	var asserted []*types.Interface
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					ast.Inspect(n.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					write(e)
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					written[id] = true
				}
			case *ast.TypeAssertExpr:
				if it, ok := p.Info.TypeOf(n.Type).(*types.Interface); ok {
					asserted = append(asserted, it)
				}
			case *ast.CallExpr:
				// An argument passed for an interface parameter is
				// reached through it; p.Info.Types holds the instantiated
				// signature of a generic callee.
				if sig, ok := p.Info.Types[n.Fun].Type.(*types.Signature); ok {
					for i, arg := range n.Args {
						if i >= sig.Params().Len() || sig.Variadic() && i == sig.Params().Len()-1 {
							break
						}
						if it, ok := sig.Params().At(i).Type().Underlying().(*types.Interface); ok {
							s.reach(p.Info.Types[arg].Type, it)
						}
					}
				}
			}
			return true
		})
	}
	for id, obj := range p.Info.Uses {
		if recv[id] {
			continue
		}
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			if k := s.fieldKey(v); written[id] {
				s.written[k] = true
			} else {
				s.read[k] = true
			}
		} else if k := surfaceKey(obj); k != "" {
			s.used[k] = true
		}
	}
	// A method is reached through an interface in any package that sees
	// both the type and the interface: the package itself or an importer.
	ifaces := append(stdInterfaces(), asserted...)
	var named []*types.Named
	for _, tp := range append([]*types.Package{p.Types}, p.Types.Imports()...) {
		if !s.local[tp.Path()] {
			continue
		}
		for _, name := range tp.Scope().Names() {
			tn, ok := tp.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := n.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			} else {
				named = append(named, n)
			}
		}
	}
	for _, n := range named {
		for _, it := range ifaces {
			if it.NumMethods() > 0 && (types.Implements(n, it) || types.Implements(types.NewPointer(n), it)) {
				s.reach(n, it)
			}
		}
	}
}

// reach marks the methods of the concrete type t that it names as
// used.
func (s *surface) reach(t types.Type, it *types.Interface) {
	if types.IsInterface(t) {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		if obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name()); obj != nil {
			s.used[surfaceKey(obj)] = true
		}
	}
}

// fieldKey names a field of a package-level struct type as
// "<import path>.<type>.<field>"; other fields yield "".
func (s *surface) fieldKey(v *types.Var) string {
	v = v.Origin()
	if pkg := v.Pkg(); pkg != nil && !s.walked[pkg] {
		s.walked[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						s.fields[st.Field(i)] = pkg.Path() + "." + name + "." + st.Field(i).Name()
					}
				}
			}
		}
	}
	return s.fields[v]
}

// surfaceKey names a package-level object or a method; fields, locals
// and objects outside a package yield "".
func surfaceKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		recv := o.Type().(*types.Signature).Recv()
		if recv == nil {
			return path + "." + o.Name()
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		return path + "." + n.Obj().Name() + "." + o.Name()
	case *types.Var:
		if o.IsField() {
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return path + "." + obj.Name()
}

// stdInterfaces are the standard-library method sets the module's types
// satisfy for fmt, errors, encoding/json and flag.
func stdInterfaces() []*types.Interface {
	str := types.Typ[types.String]
	errT := types.Universe.Lookup("error").Type()
	bytesT := types.NewSlice(types.Typ[types.Byte])
	method := func(name string, params, results []*types.Var) *types.Func {
		return types.NewFunc(token.NoPos, nil, name,
			types.NewSignatureType(nil, nil, nil, types.NewTuple(params...), types.NewTuple(results...), false))
	}
	v := func(t types.Type) *types.Var { return types.NewParam(token.NoPos, nil, "", t) }
	iface := func(ms ...*types.Func) *types.Interface { return types.NewInterfaceType(ms, nil).Complete() }
	return []*types.Interface{
		iface(method("String", nil, []*types.Var{v(str)})),                  // fmt.Stringer
		errT.Underlying().(*types.Interface),                                // error
		iface(method("Unwrap", nil, []*types.Var{v(errT)})),                 // errors.Unwrap
		iface(method("MarshalJSON", nil, []*types.Var{v(bytesT), v(errT)})), // json.Marshaler
		iface(method("Set", []*types.Var{v(str)}, []*types.Var{v(errT)}), // flag.Value
			method("String", nil, []*types.Var{v(str)})),
	}
}
