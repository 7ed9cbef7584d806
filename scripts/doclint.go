// Command doclint keeps the repo's documentation honest. It is
// stdlib-only and wired into scripts/check.sh (and thereby `make
// check` and CI). Three checks:
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

// markdownFiles lists every *.md file in the tree, skipping testdata
// and dot directories other than .claude (the verify skill lives there).
func markdownFiles(root string) ([]string, error) {
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
		if strings.HasSuffix(name, ".md") {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

func main() {
	var problems []string

	files, err := markdownFiles(".")
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

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "doclint:", p)
		}
		os.Exit(1)
	}
}
