package dynamics

import (
	"fmt"

	"mpquic/internal/sim"
)

// GEConfig parameterizes a two-state Gilbert–Elliott loss process.
// The chain steps once per packet: from Good it moves to Bad with
// probability PGoodBad, from Bad back to Good with probability
// PBadGood; the packet is then dropped with the current state's loss
// probability. The stationary Bad-state share is
//
//	π_bad = PGoodBad / (PGoodBad + PBadGood)
//
// and the long-run average loss rate is
//
//	LossGood·(1−π_bad) + LossBad·π_bad.
//
// The mean sojourn in the Bad state — the expected burst length in
// packets when LossBad = 1 — is 1/PBadGood.
type GEConfig struct {
	PGoodBad float64 // per-packet P(Good → Bad)
	PBadGood float64 // per-packet P(Bad → Good)
	LossGood float64 // drop probability while Good (usually 0)
	LossBad  float64 // drop probability while Bad (usually 1)
}

// GEFromAverage builds the canonical bursty configuration matching a
// target long-run loss rate: drops happen only in the Bad state
// (LossBad = 1, LossGood = 0), bursts last meanBurstPkts packets on
// average, and the stationary Bad share equals avgLoss — so the model
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
		LossGood: 0,
		LossBad:  1,
	}
}

// GilbertElliott is the two-state bursty loss process of Gilbert
// (1960) and Elliott (1963), the standard model for wireless-style
// correlated loss. It starts in the Good state.
type GilbertElliott struct {
	cfg  GEConfig
	rand *sim.Rand
	bad  bool

	// Packets and Drops count the process's decisions, for tests and
	// reports.
	Packets, Drops uint64
}

// NewGilbertElliott builds the process over its own PRNG. One instance
// serves exactly one link (the chain state is per-link).
func NewGilbertElliott(r *sim.Rand, cfg GEConfig) *GilbertElliott {
	return &GilbertElliott{cfg: cfg, rand: r}
}

// Config returns the process parameters.
func (g *GilbertElliott) Config() GEConfig { return g.cfg }

// Drop implements netem.LossModel: one chain step, then a loss draw in
// the resulting state.
func (g *GilbertElliott) Drop(int) bool {
	if g.bad {
		if g.rand.Bernoulli(g.cfg.PBadGood) {
			g.bad = false
		}
	} else {
		if g.rand.Bernoulli(g.cfg.PGoodBad) {
			g.bad = true
		}
	}
	p := g.cfg.LossGood
	if g.bad {
		p = g.cfg.LossBad
	}
	g.Packets++
	if g.rand.Bernoulli(p) {
		g.Drops++
		return true
	}
	return false
}
