// Command mpq-vet is the repository's invariant gate (internal/analysis),
// wired into `make check`, scripts/check.sh and CI. Over one load of a
// package pattern it runs the six analyzers — walltime, globalrand and
// maporder (determinism), confine and blocking (live concurrency), and
// annotation (the //mpq: directives) — then the compiler-assisted
// escape gate:
// `go build -gcflags=-m` over the same pattern must report nothing
// escaping to the heap inside a function annotated //mpq:noescape,
// which makes the hot path's 0-allocs/packet property a build gate
// covering every control-flow path instead of a sampled
// testing.AllocsPerRun measurement.
//
// Usage:
//
//	mpq-vet [package pattern ...]   # default ./...
//	mpq-vet -list                   # describe the suite
//
// Exit status: 0 clean, 1 on any finding or escape, 2 on
// infrastructure errors. There is no suppression syntax. When the
// toolchain's -gcflags=-m output is not parseable the escape gate
// SKIPS LOUDLY (a warning on stderr) rather than pretending it
// verified anything.
package main

import (
	"flag"
	"fmt"
	"os"

	"mpquic/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-12s %s\n", "noescape", "escape gate: nothing in a //mpq:noescape function may escape to the heap (go build -gcflags=-m)")
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fatal(err)
	}

	exit := 0
	for _, pkg := range pkgs {
		for _, d := range analysis.RunAnalyzers(pkg, analysis.All()) {
			fmt.Println(d.Format(pkg.Fset))
			exit = 1
		}
	}

	report, err := analysis.CheckEscapes(cwd, pkgs, patterns...)
	if err != nil {
		fatal(err)
	}
	for _, v := range report.Violations {
		fmt.Println(v)
		exit = 1
	}
	switch {
	case report.Skipped != "":
		fmt.Fprintf(os.Stderr, "mpq-vet: escape gate SKIPPED (not verified): %s\n", report.Skipped)
	case len(report.Violations) > 0:
		fmt.Fprintf(os.Stderr, "mpq-vet: %d escape(s) in //mpq:noescape functions\n", len(report.Violations))
	default:
		fmt.Printf("mpq-vet: %d //mpq:noescape function(s) clean\n", len(report.Funcs))
	}
	os.Exit(exit)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpq-vet:", err)
	os.Exit(2)
}
