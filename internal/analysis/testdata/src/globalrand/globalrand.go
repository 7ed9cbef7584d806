// Package globalrand exercises the globalrand analyzer: any import of
// math/rand, math/rand/v2 or crypto/rand is flagged at the import.
package globalrand

import (
	crand "crypto/rand"   // want `crypto/rand is nondeterministic`
	"math/rand"           // want `math/rand's global state breaks same-seed reproduction`
	randv2 "math/rand/v2" // want `math/rand/v2 auto-seeds per process`

	"mpquic/internal/sim"
)

func draws() (int, int) {
	b := make([]byte, 8)
	_, _ = crand.Read(b)
	return rand.Int(), randv2.Int()
}

// good draws from the scenario-seeded simulator PRNG.
func good(seed uint64) float64 {
	return sim.NewRand(seed).Float64()
}
