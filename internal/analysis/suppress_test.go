package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpquic/internal/analysis"
)

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// TestMalformedAllowAnnotationsFail proves suppressions cannot rot: an
// //mpqvet:allow with a missing reason or an unknown analyzer name is
// itself an error, even when nothing is flagged.
func TestMalformedAllowAnnotationsFail(t *testing.T) {
	root := moduleRoot(t)
	pkg, err := analysis.LoadFromDir(root, filepath.Join("testdata", "src", "badallow"), "badallow")
	if err != nil {
		t.Fatal(err)
	}
	_, err = analysis.RunAnalyzers(pkg, analysis.All())
	if err == nil {
		t.Fatal("malformed //mpqvet:allow annotations were accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `needs "<analyzer> <reason>"`) {
		t.Errorf("missing-reason annotation not reported: %v", err)
	}
	if !strings.Contains(msg, "unknown analyzer") {
		t.Errorf("unknown-analyzer annotation not reported: %v", err)
	}
}

// TestStaleAllowFails proves allows cannot rot in the other direction
// either: an //mpqvet:allow that suppresses zero diagnostics is itself
// an error — but only when the analyzer it names actually ran, so
// `mpq-vet -analyzers maporder` does not reject the walltime allows it
// never evaluated.
func TestStaleAllowFails(t *testing.T) {
	root := moduleRoot(t)
	pkg, err := analysis.LoadFromDir(root, filepath.Join("testdata", "src", "staleallow"), "staleallow")
	if err != nil {
		t.Fatal(err)
	}
	_, err = analysis.RunAnalyzers(pkg, analysis.All())
	if err == nil {
		t.Fatal("a stale //mpqvet:allow (matching zero diagnostics) was accepted")
	}
	if !strings.Contains(err.Error(), "stale") || !strings.Contains(err.Error(), "walltime") {
		t.Errorf("stale allow not reported as such: %v", err)
	}

	// The same package is fine when walltime does not run: staleness is
	// only judged for analyzers that executed.
	if _, err := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{analysis.MapOrder}); err != nil {
		t.Errorf("allow for a non-run analyzer reported stale: %v", err)
	}
}

// TestSuiteRegistry pins the analyzer names the //mpqvet:allow syntax
// and the cmd/mpq-vet -analyzers flag depend on.
func TestSuiteRegistry(t *testing.T) {
	want := []string{
		"walltime", "globalrand", "maporder", "poolsafety", "eventhandle",
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
		if analysis.ByName(name) != all[i] {
			t.Errorf("ByName(%q) does not return the suite analyzer", name)
		}
	}
	if analysis.ByName("nosuch") != nil {
		t.Error("ByName accepted an unknown name")
	}
}
