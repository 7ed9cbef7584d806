// Package analysistest runs an analyzer over a testdata package and
// checks its diagnostics against `// want "regexp"` comments, in the
// style of golang.org/x/tools/go/analysis/analysistest but built only
// on the standard library.
//
// A test package lives at testdata/src/<name>/ and marks each expected
// finding with a trailing comment on the offending line:
//
//	for k := range m { // want `map iteration order`
//
// Several expectations on one line are written as several quoted
// regexps: `// want "a" "b"`. Both double-quoted and backquoted forms
// are accepted.
package analysistest

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mpquic/internal/analysis"
)

// wantRe extracts the quoted regexps of a `// want` comment.
var wantRe = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// Run loads each named package from testdata/src/<pkg>, applies the
// analyzer, and reports mismatches between actual diagnostics and the
// // want expectations through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	root := ModuleRoot(t)
	for _, pkg := range pkgs {
		dir := filepath.Join(testdata, "src", pkg)
		loaded, err := analysis.LoadFromDir(root, dir, pkg)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		check(t, loaded, analysis.RunAnalyzers(loaded, []*analysis.Analyzer{a}))
	}
}

// expectation is one // want regexp with match bookkeeping.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

func check(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				// A want may also be embedded after a nested "//", so a
				// line whose only comment is an //mpq: directive can still
				// carry an expectation: //mpq:bogus // want `unknown`.
				if i := strings.Index(text, "// want"); i >= 0 {
					text = strings.TrimSpace(text[i+2:])
				}
				if !strings.HasPrefix(text, "want ") && text != "want" {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				for _, m := range wantRe.FindAllStringSubmatch(strings.TrimPrefix(text, "want"), -1) {
					raw := m[1]
					if raw == "" {
						raw = m[2]
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, raw, err)
						continue
					}
					wants = append(wants, &expectation{pos.Filename, pos.Line, re, raw, false})
				}
			}
		}
	}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if w.matched || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d.Format(pkg.Fset))
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}

// ModuleRoot walks up from the working directory to the go.mod.
func ModuleRoot(t *testing.T) string {
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
			t.Fatalf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
