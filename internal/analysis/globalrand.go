package analysis

import "strconv"

// globalrandBannedImports are randomness sources whose sequences are
// outside this repository's control: math/rand's global generator is
// process-global mutable state, math/rand/v2 reseeds per process, and
// crypto/rand is nondeterministic by definition. Simulation code must
// draw from the seeded, version-pinned sim.Rand (xorshift64*), whose
// stream is part of the experiment artifacts' identity.
var globalrandBannedImports = map[string]string{
	"math/rand":    "use the seeded sim.Rand; math/rand's global state breaks same-seed reproduction",
	"math/rand/v2": "use the seeded sim.Rand; math/rand/v2 auto-seeds per process",
	"crypto/rand":  "use the seeded sim.Rand; crypto/rand is nondeterministic by definition",
}

// GlobalRand forbids importing math/rand, math/rand/v2 and crypto/rand
// anywhere in the module. Every random draw in a simulation must come
// from a sim.Rand seeded by the scenario, or two runs of the same
// scenario diverge and the WSP grid stops being reproducible.
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc: "forbid math/rand, math/rand/v2 and crypto/rand; all randomness " +
		"must flow from the scenario-seeded sim.Rand",
	Run: runGlobalRand,
}

func runGlobalRand(pass *Pass) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, banned := globalrandBannedImports[path]; banned {
				pass.Reportf(imp.Pos(), "import of %s: %s", path, why)
			}
		}
	}
}
