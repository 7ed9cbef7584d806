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
//	maporder     a map is ranged over only to sort its keys or clear it
//	confine      only code the run loop reaches, and nothing else,
//	             touches what is marked //mpq:confined (the loop
//	             roots at each function marked //mpq:entry)
//	blocking     code the run loop reaches never blocks outside the
//	             //mpq:waitpoint
//	annotation   every //mpq: directive is well-formed and anchored
//	             where its analyzer will actually see it
//
// The //mpq:noescape directive is consumed by the compiler-assisted
// escape gate (escape.go) rather than an Analyzer, since it needs
// `go build -gcflags=-m` output; cmd/mpq-vet runs it over the packages
// the analyzers just saw.
//
// There is no suppression mechanism: a finding is fixed, or the rule
// is changed in review. cmd/mpq-vet exits non-zero on any diagnostic.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// An Analyzer describes one invariant check. It is the stdlib
// counterpart of golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run applies the analyzer to one package and reports findings
	// through pass.Report.
	Run func(pass *Pass)
}

// A Pass presents one loaded package (its non-test files, in file-name
// order) to an Analyzer.
type Pass struct {
	*Package
	Analyzer *Analyzer
	Report   func(Diagnostic)
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

// Format renders a diagnostic for terminal output.
func (d Diagnostic) Format(fset *token.FileSet) string {
	return fmt.Sprintf("%s: %s: %s", fset.Position(d.Pos), d.Analyzer, d.Message)
}

// All returns the mpq-vet analyzer suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		Walltime, GlobalRand, MapOrder,
		Confine, Blocking, Annotation,
	}
}

// RunAnalyzers applies each analyzer to pkg and returns the combined
// diagnostics sorted by file position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{Package: pkg, Analyzer: a, Report: func(d Diagnostic) { diags = append(diags, d) }})
	}
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
	return diags
}
