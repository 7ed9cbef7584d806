package analysis

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The escape gate turns the live lane's 0-allocs/packet claim into a
// static check: `go build -gcflags=-m` makes the compiler print its
// escape-analysis verdicts, and any "escapes to heap"/"moved to heap"
// diagnostic inside a function annotated //mpq:noescape fails the
// gate. Unlike testing.AllocsPerRun this covers every path through the
// function, not just the sampled one, and it runs from the build cache
// (the compiler replays the diagnostics without recompiling), so it is
// cheap enough for every CI run.
//
// One sharp edge, learned empirically: the compiler attributes an
// inlined callee's escapes to the CALL-SITE line in the caller. A
// //mpq:noescape function therefore must not inline allocating
// callees; outline cold allocating paths (error formatting, refills)
// into //go:noinline helpers.

// NoescapeFunc is one //mpq:noescape-annotated function: its name and
// the body's source-line range the gate polices.
type NoescapeFunc struct {
	Name      string // types.Func.FullName, e.g. "(*mpquic/internal/live.Driver).ingest"
	File      string // absolute path
	StartLine int
	EndLine   int
}

// EscapeViolation is one compiler escape diagnostic inside a
// //mpq:noescape function.
type EscapeViolation struct {
	Func    NoescapeFunc
	File    string // absolute path of the diagnostic
	Line    int
	Col     int
	Message string // the compiler's text, e.g. "make([]byte, 2048) escapes to heap"
}

func (v EscapeViolation) String() string {
	return fmt.Sprintf("%s:%d:%d: %s in //mpq:noescape func %s",
		v.File, v.Line, v.Col, v.Message, v.Func.Name)
}

// EscapeReport is the outcome of one gate run.
type EscapeReport struct {
	// Funcs are the //mpq:noescape functions found, sorted by position.
	Funcs []NoescapeFunc
	// Violations are the escape diagnostics inside those functions.
	Violations []EscapeViolation
	// Skipped is non-empty when the toolchain produced no parseable
	// -gcflags=-m output; the caller should skip loudly, not fail.
	Skipped string
}

// escapeDiagRe matches one compiler diagnostic line: path:line:col: msg.
var escapeDiagRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// CheckEscapes runs the gate over pkgs, the result of Load(root,
// patterns...): the //mpq:noescape functions come from each package's
// directive index, the verdicts from one `go build -gcflags=-m` over
// the same patterns. It returns an error only for infrastructure
// failures (the build itself failing); violations are data, not
// errors.
func CheckEscapes(root string, pkgs []*Package, patterns ...string) (*EscapeReport, error) {
	report := &EscapeReport{}
	for _, pkg := range pkgs {
		report.Funcs = append(report.Funcs, pkg.annotations().noescape...)
	}
	if len(report.Funcs) == 0 {
		return report, nil // nothing annotated, nothing to build
	}

	args := append([]string{"build", "-gcflags=-m"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m %v: %v\n%s", patterns, err, stderr.String())
	}

	parsed := 0
	scanner := bufio.NewScanner(&stderr)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	for scanner.Scan() {
		m := escapeDiagRe.FindStringSubmatch(scanner.Text())
		if m == nil {
			continue // "# pkg" headers and wrapped lines
		}
		parsed++
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(root, file)
		}
		file = filepath.Clean(file)
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		for _, fn := range report.Funcs {
			if fn.File == file && fn.StartLine <= line && line <= fn.EndLine {
				report.Violations = append(report.Violations, EscapeViolation{
					Func: fn, File: file, Line: line, Col: col, Message: msg,
				})
			}
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("reading -gcflags=-m output: %v", err)
	}
	// A healthy -m run prints hundreds of "does not escape"/"inlining"
	// lines. Zero parseable diagnostics means this toolchain's output is
	// not something the gate understands — skip loudly rather than
	// vacuously pass.
	if parsed == 0 {
		report.Skipped = "go build -gcflags=-m produced no parseable diagnostics; toolchain output format not recognized"
	}
	sort.Slice(report.Violations, func(i, j int) bool {
		a, b := report.Violations[i], report.Violations[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return report, nil
}
