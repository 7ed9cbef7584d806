package analysis_test

import (
	"path/filepath"
	"testing"

	"mpquic/internal/analysis"
)

// TestLiveInvariantsPinned proves the live-lane analyzers cannot
// silently regress into passing everything: each of confine,
// poolsafety and blocking must flag the deliberately broken driver
// loop in testdata/src/livebroken. A zero count from any of them means
// the analyzer stopped seeing the very bugs it was built for.
func TestLiveInvariantsPinned(t *testing.T) {
	root := moduleRoot(t)
	pkg, err := analysis.LoadFromDir(root, filepath.Join("testdata", "src", "livebroken"), "livebroken")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*analysis.Analyzer{analysis.Confine, analysis.PoolSafety, analysis.Blocking} {
		diags, err := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if len(diags) == 0 {
			t.Errorf("%s produced no diagnostics on the broken driver loop; the analyzer has gone blind", a.Name)
		}
		for _, d := range diags {
			t.Logf("%s: %s", a.Name, d.Format(pkg.Fset))
		}
	}
}
