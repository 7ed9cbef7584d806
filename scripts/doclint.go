// Command doclint keeps the repo's documentation honest. It is
// stdlib-only and wired into scripts/check.sh (and thereby `make
// check` and CI). Five checks:
//
//  1. Intra-repo markdown links: every relative link target in every
//     tracked *.md file must exist on the filesystem, so renames and
//     deletions cannot silently orphan documentation.
//  2. Event-schema coverage: every trace.EventType the code defines
//     (the trace.AllEventTypes registry) must be documented in
//     OBSERVABILITY.md, so the trace vocabulary cannot grow past its
//     reference.
//  3. Binaries that exist: every cmd/<name> the living documents
//     mention (livingDocs: the ones that describe the tree as it is;
//     CHANGES.md and ROADMAP.md are history, bench/README.md belongs
//     to benchmark PRs) must be a directory, so folding or deleting a
//     binary cannot leave its invocations behind.
//  4. CHANGES.md entries keep their headings: a "- **Tentpole" bullet
//     after a "- **Left out" bullet under the same "## " heading means
//     the entry it opens lost its heading and reads as the tail of the
//     one before.
//  5. Fuzzers that run: every native fuzz target a _test.go file
//     declares must have a line in the Makefile's fuzz-smoke target,
//     which CI runs, naming it and its package directory.
//
// Usage (from the repo root):
//
//	go run ./scripts/doclint.go
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"

	"mpquic/internal/trace"
)

// linkPattern matches inline markdown links [text](target). Reference
// definitions and autolinks are out of scope: the repo's docs use
// inline links only.
var linkPattern = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// externalLink reports whether a link target points outside the
// repository (or inside the same document) and is therefore not ours
// to verify.
func externalLink(target string) bool {
	return strings.HasPrefix(target, "http://") ||
		strings.HasPrefix(target, "https://") ||
		strings.HasPrefix(target, "mailto:") ||
		strings.HasPrefix(target, "#")
}

// checkLinks verifies every relative link of one markdown file,
// appending a message per broken target.
func checkLinks(path string, data []byte, problems []string) []string {
	for _, m := range linkPattern.FindAllSubmatch(data, -1) {
		target := string(m[1])
		if externalLink(target) {
			continue
		}
		// Drop a trailing #fragment; only the file part is checkable.
		if i := strings.IndexByte(target, '#'); i >= 0 {
			target = target[:i]
			if target == "" {
				continue
			}
		}
		resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
		if _, err := os.Stat(resolved); err != nil {
			problems = append(problems, fmt.Sprintf("%s: broken link %q (%s does not exist)", path, string(m[0]), resolved))
		}
	}
	return problems
}

// livingDocs describe the repository as it is now.
var livingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "OBSERVABILITY.md", ".claude/skills/verify/SKILL.md"}

var cmdPattern = regexp.MustCompile(`\bcmd/([a-z0-9][a-z0-9-]*)`)

// checkCommands verifies that every cmd/<name> one document mentions
// is a directory, appending a message per mention that is not.
func checkCommands(path string, data []byte, problems []string) []string {
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range cmdPattern.FindAllString(line, -1) {
			if st, err := os.Stat(filepath.FromSlash(m)); err != nil || !st.IsDir() {
				problems = append(problems, fmt.Sprintf("%s:%d: %s is not a directory", path, i+1, m))
			}
		}
	}
	return problems
}

// checkChangeEntries flags every Tentpole bullet of the change log that
// follows a Left out bullet under the same heading, appending a
// message per bullet.
func checkChangeEntries(path string, data []byte, problems []string) []string {
	leftOut := false
	for i, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "## "):
			leftOut = false
		case strings.HasPrefix(line, "- **Left out"):
			leftOut = true
		case leftOut && strings.HasPrefix(line, "- **Tentpole"):
			problems = append(problems, fmt.Sprintf("%s:%d: Tentpole bullet after a Left out bullet under one heading; the entry it opens has no \"## \" heading", path, i+1))
		}
	}
	return problems
}

// fuzzPattern matches a native fuzz target's declaration.
var fuzzPattern = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(\w+ \*testing\.F\)`)

// checkFuzzers verifies that smoke, the fuzz-smoke recipe, runs every
// fuzz target one test file declares, appending a message per target
// it does not.
func checkFuzzers(path string, data []byte, smoke []string, problems []string) []string {
	for _, m := range fuzzPattern.FindAllSubmatch(data, -1) {
		run := fmt.Sprintf("-fuzz='^%s$$'", m[1])
		pkg := " ./" + filepath.ToSlash(filepath.Dir(path))
		if !slices.ContainsFunc(smoke, func(line string) bool {
			return strings.Contains(line, run) && strings.HasSuffix(line, pkg)
		}) {
			problems = append(problems, fmt.Sprintf("%s: %s is not run by the Makefile's fuzz-smoke target", path, m[1]))
		}
	}
	return problems
}

// fuzzSmoke returns the recipe lines of the Makefile's fuzz-smoke
// target.
func fuzzSmoke(makefile string) []string {
	_, recipe, _ := strings.Cut(makefile, "\nfuzz-smoke:\n")
	var lines []string
	for _, line := range strings.Split(recipe, "\n") {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		lines = append(lines, line)
	}
	return lines
}

// treeFiles lists every file in the tree whose name ends in suffix,
// skipping testdata and dot directories other than .claude (the verify
// skill lives there).
func treeFiles(root, suffix string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && name != ".claude" && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, suffix) {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

func main() {
	var problems []string

	files, err := treeFiles(".", ".md")
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(1)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(1)
		}
		problems = checkLinks(path, data, problems)
		if slices.Contains(livingDocs, path) {
			problems = checkCommands(path, data, problems)
		}
		if path == "CHANGES.md" {
			problems = checkChangeEntries(path, data, problems)
		}
	}

	// Schema coverage: OBSERVABILITY.md documents every event type, as
	// a `code span` so prose mentioning a word like "timeout" cannot
	// accidentally satisfy the check.
	const schemaDoc = "OBSERVABILITY.md"
	schema, err := os.ReadFile(schemaDoc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(1)
	}
	for _, et := range trace.AllEventTypes() {
		if !strings.Contains(string(schema), "`"+string(et)+"`") {
			problems = append(problems, fmt.Sprintf("%s: event type `%s` is not documented", schemaDoc, et))
		}
	}

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(1)
	}
	smoke := fuzzSmoke(string(makefile))
	tests, err := treeFiles(".", "_test.go")
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(1)
	}
	for _, path := range tests {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(1)
		}
		problems = checkFuzzers(path, data, smoke, problems)
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "doclint:", p)
		}
		os.Exit(1)
	}
}
