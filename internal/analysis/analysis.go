// Package analysis is a stdlib-only static-analysis framework plus the
// mpq-vet analyzer suite that proves the simulator's determinism
// invariants and the live fast lane's concurrency invariants.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis — an
// Analyzer is a named Run function over a type-checked package — but is
// self-contained: packages are loaded with `go list -export` plus the
// standard go/importer, so the suite builds offline with no
// third-party dependencies. Each analyzer enforces one invariant the
// scenario-grid artifacts or the live throughput numbers depend on
// (see DESIGN.md, "Determinism invariants" and "Live concurrency
// invariants"):
//
//	walltime     no wall-clock reads outside the perf harness
//	globalrand   no math/rand or crypto/rand; use the seeded sim PRNG
//	maporder     no map-iteration order leaking into schedules/results
//	poolsafety   no use of a pooled packet buffer, or of any slice of
//	             it, after PutPacketBuf; no DecodeBorrowed aliases
//	             escaping the handler
//	eventhandle  no *sim.Event handles held outside sim.Timer
//	confine      //mpq:confined members touched only from their
//	             goroutine domain, rooted at //mpq:entry functions
//	blocking     run-loop-domain code never blocks outside the
//	             //mpq:waitpoint
//	annotation   every //mpq: directive is well-formed and anchored
//	             where its analyzer will actually see it
//
// The //mpq:noescape directive is consumed by a separate
// compiler-assisted gate (escape.go, cmd/mpq-escape) rather than an
// Analyzer, since it needs `go build -gcflags=-m` output.
//
// A finding is suppressed by an explicit, audited annotation on the
// offending line (or the line above):
//
//	//mpqvet:allow <analyzer> <reason>
//
// The reason is mandatory; a bare allow is itself an error, and so is
// a stale allow that no longer matches any diagnostic. The
// cmd/mpq-vet driver runs every analyzer over a package pattern and
// exits non-zero on any unsuppressed diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant check. It is the stdlib
// counterpart of golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //mpqvet:allow annotations. It must be a valid identifier.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run applies the analyzer to one package and reports findings
	// through pass.Report. The return value is reserved for future
	// fact passing and is currently always (nil, nil).
	Run func(pass *Pass) (any, error)
}

// A Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's non-test syntax trees, in file-name
	// order (deterministic across runs).
	Files []*ast.File
	// PkgPath is the package's import path ("mpquic/internal/sim").
	PkgPath   string
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding: an invariant violation at a position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// All returns the mpq-vet analyzer suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		Walltime, GlobalRand, MapOrder, PoolSafety, EventHandle,
		Confine, Blocking, Annotation,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAnalyzers applies each analyzer to pkg and returns the combined
// unsuppressed diagnostics sorted by file position, plus any errors
// raised for malformed //mpqvet:allow annotations.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			PkgPath:   pkg.PkgPath,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.PkgPath, a.Name, err)
		}
	}
	diags, err := filterSuppressed(pkg, diags, ran)
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, err
}
