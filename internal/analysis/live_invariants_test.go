package analysis_test

import (
	"path/filepath"
	"testing"

	"mpquic/internal/analysis"
	"mpquic/internal/analysis/analysistest"
)

// pinnedFixture names, per rule, a deliberately broken testdata package
// the rule must flag. The two live-lane rules share livebroken, a
// miniature of the driver loop with every regression they exist for.
var pinnedFixture = map[string]string{
	"walltime":   "walltime",
	"globalrand": "globalrand",
	"maporder":   "maporder",
	"confine":    "livebroken",
	"blocking":   "livebroken",
	"annotation": "annotation",
}

// TestLiveInvariantsPinned makes "a rule that cannot fail" a test
// failure rather than a review opinion: every analyzer of the suite,
// and the escape gate, must produce at least one finding on its broken
// fixture. A rule added without a fixture fails here too.
func TestLiveInvariantsPinned(t *testing.T) {
	root := analysistest.ModuleRoot(t)
	for _, a := range analysis.All() {
		t.Run(a.Name, func(t *testing.T) {
			fixture, ok := pinnedFixture[a.Name]
			if !ok {
				t.Fatalf("no broken fixture pins %s; a rule nothing can violate does not belong in the suite", a.Name)
			}
			pkg, err := analysis.LoadFromDir(root, filepath.Join("testdata", "src", fixture), fixture)
			if err != nil {
				t.Fatal(err)
			}
			diags := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{a})
			if len(diags) == 0 {
				t.Errorf("%s produced no diagnostics on testdata/src/%s; the analyzer has gone blind", a.Name, fixture)
			}
			for _, d := range diags {
				t.Log(d.Format(pkg.Fset))
			}
		})
	}
	t.Run("noescape", func(t *testing.T) {
		report := escapeGate(t, filepath.Join("testdata", "src", "escapebroken"))
		if len(report.Violations) == 0 {
			t.Error("the escape gate reported nothing on testdata/src/escapebroken; the gate is decorative")
		}
	})
}

// TestSuiteRegistry pins the analyzer names diagnostics carry and the
// order mpq-vet -list prints.
func TestSuiteRegistry(t *testing.T) {
	want := []string{
		"walltime", "globalrand", "maporder",
		"confine", "blocking", "annotation",
	}
	all := analysis.All()
	if len(all) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(all), len(want))
	}
	for i, name := range want {
		if all[i].Name != name {
			t.Errorf("analyzer %d is %q, want %q", i, all[i].Name, name)
		}
	}
}
