package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitStatus drives the built binary, the way CI does: one process
// owns both gates, so its exit status must turn non-zero for an
// analyzer finding and for an escape in a //mpq:noescape function, and
// stay zero on a clean package.
func TestExitStatus(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "mpq-vet")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	fixtures, err := filepath.Abs(filepath.Join("..", "..", "internal", "analysis", "testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, dir, pattern string
		exit               int
		want               string // substring of the combined output
	}{
		{"noescape violation", filepath.Join(fixtures, "escapebroken"), "./...", 1, "in //mpq:noescape func escapebroken.leak"},
		{"analyzer findings", filepath.Join(fixtures, "livebroken"), ".", 1, "blocking: blocking channel receive in run-loop code"},
		{"clean package", filepath.Join("..", "..", "internal", "rtt"), ".", 0, "0 //mpq:noescape function(s) clean"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.pattern)
			cmd.Dir = tc.dir
			out, err := cmd.CombinedOutput()
			exit := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(out), "SKIPPED") {
				t.Skipf("toolchain output not parseable:\n%s", out)
			}
			if exit != tc.exit || !strings.Contains(string(out), tc.want) {
				t.Errorf("exit %d, want %d with %q in the output:\n%s", exit, tc.exit, tc.want, out)
			}
		})
	}
}
