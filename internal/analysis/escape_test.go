package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpquic/internal/analysis"
	"mpquic/internal/analysis/analysistest"
)

// escapeGate loads the module at dir and runs the gate over it, the two
// steps cmd/mpq-vet performs; an unparseable toolchain skips.
func escapeGate(t *testing.T, dir string) *analysis.EscapeReport {
	t.Helper()
	dir, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	report, err := analysis.CheckEscapes(dir, pkgs, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if report.Skipped != "" {
		t.Skipf("toolchain output not parseable: %s", report.Skipped)
	}
	return report
}

// writeModule lays out a throwaway module the gate can build.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestEscapeGateFailsOnEscapingNoescapeFunc is the gate's own
// regression test: a //mpq:noescape function whose local demonstrably
// escapes must produce a violation attributed to it and to nothing
// else — otherwise the gate is decorative.
func TestEscapeGateFailsOnEscapingNoescapeFunc(t *testing.T) {
	report := escapeGate(t, filepath.Join("testdata", "src", "escapebroken"))
	if len(report.Funcs) != 2 {
		t.Fatalf("found %d //mpq:noescape funcs, want 2: %+v", len(report.Funcs), report.Funcs)
	}
	if len(report.Violations) == 0 {
		t.Fatal("no violations reported for a function whose local moves to the heap")
	}
	for _, v := range report.Violations {
		if !strings.Contains(v.Func.Name, "leak") {
			t.Errorf("violation attributed to %s, want leak: %s", v.Func.Name, v)
		}
		if !strings.Contains(v.String(), "//mpq:noescape func") {
			t.Errorf("violation string does not name the annotation: %s", v)
		}
	}
}

// TestEscapeGateCleanModulePasses is the complementary case: an
// annotated function with no escapes yields an empty violation list.
func TestEscapeGateCleanModulePasses(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module escapetest\n\ngo 1.24\n",
		"ok.go": `package escapetest

// sum allocates nothing.
//
//mpq:noescape
func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

var result = sum([]int{1, 2, 3})
`,
	})
	report := escapeGate(t, dir)
	if len(report.Violations) != 0 {
		t.Errorf("clean module reported violations: %v", report.Violations)
	}
	if len(report.Funcs) != 1 {
		t.Errorf("found %d //mpq:noescape funcs, want 1", len(report.Funcs))
	}
}

// TestEscapeGateOnRepo pins the real annotations: the module's own
// //mpq:noescape set must be non-empty and clean, or the fast lane has
// started allocating.
func TestEscapeGateOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping whole-module escape analysis")
	}
	report := escapeGate(t, analysistest.ModuleRoot(t))
	for _, fn := range report.Funcs {
		t.Logf("%s:%d-%d: %s", fn.File, fn.StartLine, fn.EndLine, fn.Name)
	}
	if len(report.Funcs) == 0 {
		t.Fatal("no //mpq:noescape functions found in the module; the hot-path annotations are gone")
	}
	for _, v := range report.Violations {
		t.Errorf("hot-path escape: %s", v)
	}
}
