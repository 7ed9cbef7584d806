package analysis_test

import (
	"path/filepath"
	"testing"

	"mpquic/internal/analysis"
	"mpquic/internal/analysis/analysistest"
)

func TestWalltime(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Walltime, "walltime")
}

// TestFaultnetWalltimeClean proves internal/faultnet earns its way
// past the walltime analyzer instead of being allowlisted: the fault
// injector observes time only through its injected Clock, so (a) the
// real package produces zero findings without any exemption, and (b)
// the exemption really is absent — wall-clock-reading code placed
// under faultnet's import path still fires.
func TestFaultnetWalltimeClean(t *testing.T) {
	root := analysistest.ModuleRoot(t)

	real, err := analysis.LoadFromDir(root, filepath.Join(root, "internal", "faultnet"), "mpquic/internal/faultnet")
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.RunAnalyzers(real, []*analysis.Analyzer{analysis.Walltime})
	if len(diags) != 0 {
		t.Errorf("internal/faultnet produced %d walltime findings, want 0 (it must stay clock-injected): %v", len(diags), diags)
	}

	fixture, err := analysis.LoadFromDir(root, filepath.Join("testdata", "src", "perfpkg"), "mpquic/internal/faultnet")
	if err != nil {
		t.Fatal(err)
	}
	diags = analysis.RunAnalyzers(fixture, []*analysis.Analyzer{analysis.Walltime})
	if len(diags) != 2 {
		t.Errorf("faultnet's import path is exempt from walltime (%d findings, want 2); it must not be allowlisted", len(diags))
	}
}

// TestWalltimeAllowlist loads the same wall-clock-reading code under
// each allowlisted import path (no findings) and under non-allowlisted
// paths (two findings each). This proves the allowlist is path-based,
// not accidental, and that adding internal/live to it did not widen
// the exemption anywhere else — a core-like path still fires.
func TestWalltimeAllowlist(t *testing.T) {
	root := analysistest.ModuleRoot(t)
	dir := filepath.Join("testdata", "src", "perfpkg")

	allowed := []string{"mpquic/internal/perf", "mpquic/internal/live"}
	for _, path := range allowed {
		as, err := analysis.LoadFromDir(root, dir, path)
		if err != nil {
			t.Fatal(err)
		}
		diags := analysis.RunAnalyzers(as, []*analysis.Analyzer{analysis.Walltime})
		if len(diags) != 0 {
			t.Errorf("allowlisted %s produced %d findings, want 0: %v", path, len(diags), diags)
		}
	}

	// The exemption must not leak: neither a plain path nor a sibling
	// internal package (the protocol core's path shape) is excused.
	denied := []string{"perfpkg", "mpquic/internal/core"}
	for _, path := range denied {
		as, err := analysis.LoadFromDir(root, dir, path)
		if err != nil {
			t.Fatal(err)
		}
		diags := analysis.RunAnalyzers(as, []*analysis.Analyzer{analysis.Walltime})
		if len(diags) != 2 {
			t.Errorf("non-allowlisted %s produced %d findings, want 2: %v", path, len(diags), diags)
		}
	}
}
