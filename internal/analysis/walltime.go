package analysis

import (
	"go/ast"
)

// walltimeAllowedPkgs are the packages where reading the wall clock is
// legitimate: the perf harness measures real elapsed time by design,
// and the live driver's whole job is mapping wall time onto sim time
// (it pins the epoch with time.Now and arms wake-ups with
// time.NewTimer). cmd tools must reach wall time through those two
// packages' helpers (perf.Stopwatch, live.Driver) so every wall-clock
// read in the tree is funnelled through audited packages rather than
// blanket-excluding cmd/.
var walltimeAllowedPkgs = map[string]bool{
	perfPkgPath: true,
	livePkgPath: true,
}

// walltimeBanned are the time-package functions that read or depend on
// the wall clock. Pure conversions and constructors (time.Duration,
// time.Unix, time.Date) are fine: they do not observe real time.
var walltimeBanned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// Walltime forbids wall-clock reads outside the allowlist. The
// simulation must advance only through the sim.Clock virtual time;
// one time.Now in a protocol path makes every grid artifact depend on
// host speed and destroys the byte-identical reproduction the paper
// evaluation (§4) relies on.
var Walltime = &Analyzer{
	Name: "walltime",
	Doc: "forbid time.Now/Since/Sleep/After and friends outside the perf harness; " +
		"sim code must use the virtual sim.Clock",
	Run: runWalltime,
}

func runWalltime(pass *Pass) {
	if walltimeAllowedPkgs[pass.PkgPath] {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if fn := sel.Sel.Name; walltimeBanned[fn] && pkgFunc(pass.Info, call, "time", fn) {
				pass.Reportf(call.Pos(),
					"time.%s reads the wall clock; use the virtual sim.Clock (or perf.Stopwatch in tooling)", fn)
			}
			return true
		})
	}
}
