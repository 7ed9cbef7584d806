package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mpquic/internal/analysis"
	"mpquic/internal/analysis/analysistest"
)

// surfaceKeep names each exported identifier that no non-test code of
// the module (nor bench/, its own module) uses, and the user that
// keeps it exported anyway. A key is "<import path>.<name>" or
// "<import path>.<receiver>.<method>".
var surfaceKeep = map[string]string{
	// The root facade's vocabulary, which README and OBSERVABILITY.md
	// document for programs outside the module.
	"mpquic.AbortError":                                "README: what Download returns when the connection dies (errors.As)",
	"mpquic.ErrTimeout":                                "README: what Download returns past its deadline (errors.Is)",
	"mpquic.CCCubic":                                   "facade: Config.CC values, with CCOlia, CCReno and CCLia",
	"mpquic.CCLia":                                     "facade: Config.CC values (DESIGN.md's LIA row)",
	"mpquic.CCOlia":                                    "facade: Config.CC values",
	"mpquic.CCReno":                                    "facade: Config.CC values",
	"mpquic.SchedLowestRTT":                            "facade: Config.Scheduler values, with the SchedLowestRTTNoDup examples/schedulers sets",
	"mpquic.Path":                                      "facade: the type Conn.Paths returns",
	"mpquic.Stream":                                    "facade: the type Conn.OpenStream returns",
	"mpquic.ReqRespSample":                             "facade: the sample type ReqRespClient (StartRequestTrain) records",
	"mpquic.Network.ServerAddr":                        "facade: the address a program outside the module dials or scripts against",
	"mpquic.Network.SetLinkTracer":                     "README and OBSERVABILITY.md: tracing the emulated links",
	"mpquic.NewQlogTracer":                             "README and OBSERVABILITY.md: writing a qlog trace",
	"mpquic/internal/live.Driver.PendingIngress":       "internal/perf's live allocation test and the live ingress tests watch bursts queue up",
	"mpquic/internal/netem.Link.QueueCapacityBytes":    "the dynamics tests check that a rate change re-derives the queue bound",
	"mpquic/internal/perf.RaceEnabled":                 "timing tests in recovery and perf skip under -race; a build tag sets it, so no _test.go file can",
	"mpquic/internal/perf.SamplePacket":                "the one packet every allocation budget in internal/perf is set on",
	"mpquic/internal/sim.Clock.Pending":                "internal/perf's event-queue occupancy test and the clock's model test",
	"mpquic/internal/trace.NewCounter":                 "the netem and dynamics tests count link events with it",
	"mpquic/internal/trace.SeriesRecorder.EncodeJSONL": "the sampled series' JSONL form, pinned byte-reproducible by the expdesign tests",
	"mpquic/internal/wire.AckFrame.Validate":           "FuzzDecode's oracle: every ACK the decoder accepts must validate",
}

// TestProductionSurface fails on an exported name that only tests use
// and that surfaceKeep does not justify, and on a keep-list entry that
// is no longer needed. Uses are resolved by go/types over the module's
// non-test files; bench/ is a separate module, so any identifier its
// non-test files spell counts as a use. A method that satisfies an
// interface the module declares, or one of the standard interfaces in
// stdInterfaces, is reached through that interface and is never
// reported.
func TestProductionSurface(t *testing.T) {
	root := analysistest.ModuleRoot(t)
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench := benchIdents(t, root)
	used := make(map[string]bool)
	local := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		local[p.PkgPath] = true
		for _, obj := range p.Info.Uses {
			if k := surfaceKey(obj); k != "" {
				used[k] = true
			}
		}
	}
	// A method is reached through an interface in any package that sees
	// both the type and the interface: the package itself or an importer.
	for _, p := range pkgs {
		universe := append([]*types.Package{p.Types}, p.Types.Imports()...)
		var named []*types.Named
		ifaces := stdInterfaces()
		for _, tp := range universe {
			if !local[tp.Path()] {
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
				if it.NumMethods() == 0 || !(types.Implements(n, it) || types.Implements(types.NewPointer(n), it)) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m, _, _ := types.LookupFieldOrMethod(types.NewPointer(n), true, nil, it.Method(i).Name())
					used[surfaceKey(m)] = true
				}
			}
		}
	}

	var unused []string
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			unused = appendUnused(unused, used, bench, surfaceKey(obj))
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < n.NumMethods(); i++ {
					if m := n.Method(i); m.Exported() {
						unused = appendUnused(unused, used, bench, surfaceKey(m))
					}
				}
			}
		}
	}
	sort.Strings(unused)
	flagged := make(map[string]bool, len(unused))
	for _, k := range unused {
		flagged[k] = true
		if _, ok := surfaceKeep[k]; !ok {
			t.Errorf("%s is exported but only tests use it: delete it, let its tests read unexported state, or add it to surfaceKeep with its user", k)
		}
	}
	for k := range surfaceKeep {
		if !flagged[k] {
			t.Errorf("surfaceKeep lists %s, which is gone or now has a non-test user: drop the entry", k)
		}
	}
}

// appendUnused appends key to unused unless the module uses it or
// bench/ spells its name.
func appendUnused(unused []string, used, bench map[string]bool, key string) []string {
	if key == "" || used[key] || bench[key[strings.LastIndexByte(key, '.')+1:]] {
		return unused
	}
	return append(unused, key)
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

// benchIdents returns every exported identifier the non-test files of
// bench/ spell: bench/ builds against the module but is not loaded with
// it, so a name it spells counts as used wherever it is declared.
func benchIdents(t *testing.T, root string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(root, "bench", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.IsExported() {
				names[id.Name] = true
			}
			return true
		})
	}
	return names
}
