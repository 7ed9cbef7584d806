package dynamics

import (
	"fmt"

	"mpquic/internal/sim"
)

// GEConfig parameterizes a two-state Gilbert–Elliott loss process.
// The chain steps once per packet: from Good it moves to Bad with
// probability PGoodBad, from Bad back to Good with probability
// PBadGood; the packet is then dropped if the chain is in Bad. The
// long-run loss rate is the stationary Bad-state share
//
//	π_bad = PGoodBad / (PGoodBad + PBadGood)
//
// and the mean sojourn in the Bad state — the expected burst length in
// packets — is 1/PBadGood.
type GEConfig struct {
	PGoodBad float64 // per-packet P(Good → Bad)
	PBadGood float64 // per-packet P(Bad → Good)
}

// GEFromAverage builds the bursty configuration matching a target
// long-run loss rate: bursts last meanBurstPkts packets on average,
// and the stationary Bad share equals avgLoss — so the model
// is directly comparable to a link's own Bernoulli LossRate of the
// same value, differing only in how the drops clump.
func GEFromAverage(avgLoss, meanBurstPkts float64) GEConfig {
	if avgLoss < 0 || avgLoss >= 1 {
		panic(fmt.Sprintf("dynamics: GE average loss %v out of [0,1)", avgLoss))
	}
	if meanBurstPkts < 1 {
		meanBurstPkts = 1
	}
	pbg := 1 / meanBurstPkts
	return GEConfig{
		PGoodBad: pbg * avgLoss / (1 - avgLoss),
		PBadGood: pbg,
	}
}

// GilbertElliott is the two-state bursty loss process of Gilbert
// (1960) and Elliott (1963), the standard model for wireless-style
// correlated loss. It starts in the Good state.
type GilbertElliott struct {
	cfg  GEConfig
	rand *sim.Rand
	bad  bool
}

// NewGilbertElliott builds the process over its own PRNG. One instance
// serves exactly one link (the chain state is per-link).
func NewGilbertElliott(r *sim.Rand, cfg GEConfig) *GilbertElliott {
	return &GilbertElliott{cfg: cfg, rand: r}
}

// Drop implements netem.LossModel: one chain step, then a drop in the
// Bad state.
func (g *GilbertElliott) Drop(int) bool {
	if g.bad {
		g.bad = !g.rand.Bernoulli(g.cfg.PBadGood)
	} else {
		g.bad = g.rand.Bernoulli(g.cfg.PGoodBad)
	}
	return g.bad
}
