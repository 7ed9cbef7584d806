package dynamics

import (
	"math"
	"testing"

	"mpquic/internal/sim"
)

func TestGEFromAverageMatchesTargets(t *testing.T) {
	for _, c := range []struct{ loss, burst float64 }{
		{0.01, 2}, {0.025, 8}, {0.05, 16}, {0.2, 4},
	} {
		cfg := GEFromAverage(c.loss, c.burst)
		// The loss rate is the stationary Bad share.
		if got := cfg.PGoodBad / (cfg.PGoodBad + cfg.PBadGood); math.Abs(got-c.loss) > 1e-12 {
			t.Fatalf("GEFromAverage(%v,%v): average loss %v", c.loss, c.burst, got)
		}
		if got := 1 / cfg.PBadGood; math.Abs(got-c.burst) > 1e-9 {
			t.Fatalf("GEFromAverage(%v,%v): mean burst %v", c.loss, c.burst, got)
		}
	}
}

func TestGEStationaryLossRateConverges(t *testing.T) {
	const target, burst = 0.05, 8.0
	g := NewGilbertElliott(sim.NewRand(11), GEFromAverage(target, burst))
	const n = 200_000
	drops := 0
	for i := 0; i < n; i++ {
		if g.Drop(1000) {
			drops++
		}
	}
	rate := float64(drops) / n
	if rate < 0.8*target || rate > 1.2*target {
		t.Fatalf("empirical loss %v, want ~%v (p·π_bad)", rate, target)
	}
}

// meanRun returns the mean length of runs of consecutive true values.
func meanRun(seq []bool) float64 {
	runs, total, cur := 0, 0, 0
	for _, v := range seq {
		if v {
			cur++
			continue
		}
		if cur > 0 {
			runs++
			total += cur
			cur = 0
		}
	}
	if cur > 0 {
		runs++
		total += cur
	}
	if runs == 0 {
		return 0
	}
	return float64(total) / float64(runs)
}

func TestGEBurstsLongerThanBernoulliAtEqualLoss(t *testing.T) {
	const avg, burst, n = 0.05, 8.0, 200_000
	ge := NewGilbertElliott(sim.NewRand(3), GEFromAverage(avg, burst))
	be := sim.NewRand(4) // a link's own LossRate draw
	geSeq := make([]bool, n)
	beSeq := make([]bool, n)
	for i := 0; i < n; i++ {
		geSeq[i] = ge.Drop(1000)
		beSeq[i] = be.Bernoulli(avg)
	}
	geRun, beRun := meanRun(geSeq), meanRun(beSeq)
	// Bernoulli mean run at 5% is ~1/(1−p) ≈ 1.05; the GE chain's is
	// its mean Bad sojourn ≈ 8. Require a wide, stable margin.
	if geRun < 4*beRun {
		t.Fatalf("GE mean burst %v not ≫ Bernoulli %v at equal average loss", geRun, beRun)
	}
	if beRun > 1.5 {
		t.Fatalf("Bernoulli mean run %v implausibly bursty", beRun)
	}
}

func TestGEDeterministicDropSequence(t *testing.T) {
	cfg := GEFromAverage(0.03, 6)
	a := NewGilbertElliott(sim.NewRand(99), cfg)
	b := NewGilbertElliott(sim.NewRand(99), cfg)
	for i := 0; i < 20_000; i++ {
		if a.Drop(100) != b.Drop(100) {
			t.Fatalf("same seed diverged at packet %d", i)
		}
	}
	c := NewGilbertElliott(sim.NewRand(100), cfg)
	same := true
	for i := 0; i < 20_000; i++ {
		if a.Drop(100) != c.Drop(100) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical drop sequences")
	}
}

func TestGEFromAverageClampsAndPanics(t *testing.T) {
	// Burst below one packet clamps to one (degenerate, Bernoulli-ish).
	cfg := GEFromAverage(0.1, 0.25)
	if cfg.PBadGood != 1 {
		t.Fatalf("burst clamp: PBadGood %v, want 1", cfg.PBadGood)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("average loss of 1 accepted")
		}
	}()
	GEFromAverage(1, 8)
}
