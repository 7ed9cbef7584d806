package expdesign

import (
	"math"
	"testing"
	"time"

	"mpquic/internal/netem"
)

func TestGenerateScenariosRespectsRanges(t *testing.T) {
	for _, c := range Classes {
		scs := GenerateScenarios(c, 40)
		if len(scs) != 40 {
			t.Fatalf("%s: %d scenarios", c.Name, len(scs))
		}
		for _, sc := range scs {
			for _, p := range sc.Paths {
				if p.CapacityMbps < c.Ranges.CapacityMinMbps || p.CapacityMbps > c.Ranges.CapacityMaxMbps {
					t.Fatalf("%s capacity %v out of range", c.Name, p.CapacityMbps)
				}
				if p.RTT < 0 || p.RTT > c.Ranges.RTTMax {
					t.Fatalf("%s rtt %v out of range", c.Name, p.RTT)
				}
				if p.QueueDelay < 0 || p.QueueDelay > c.Ranges.QueueDelayMax {
					t.Fatalf("%s queue %v", c.Name, p.QueueDelay)
				}
				if c.Losses {
					if p.LossRate < 0 || p.LossRate > c.Ranges.LossMax {
						t.Fatalf("%s loss %v", c.Name, p.LossRate)
					}
				} else if p.LossRate != 0 {
					t.Fatalf("%s has loss in no-loss class", c.Name)
				}
			}
		}
	}
}

func TestGenerateScenariosDeterministic(t *testing.T) {
	a := GenerateScenarios(LowBDPNoLoss, 10)
	b := GenerateScenarios(LowBDPNoLoss, 10)
	for i := range a {
		if a[i].Paths != b[i].Paths {
			t.Fatal("non-deterministic scenarios")
		}
	}
}

func TestLogMapCoversDecades(t *testing.T) {
	if got := logMap(0, 0.1, 100); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("low end %v", got)
	}
	if got := logMap(1, 0.1, 100); math.Abs(got-100) > 1e-6 {
		t.Fatalf("high end %v", got)
	}
	mid := logMap(0.5, 0.1, 100)
	if mid < 3 || mid > 3.3 { // sqrt(0.1*100) ≈ 3.16
		t.Fatalf("log midpoint %v", mid)
	}
}

func TestEBenFormula(t *testing.T) {
	gs := []float64{10, 5}
	// Equal to best single path → 0.
	if e := EBen(10, gs); e != 0 {
		t.Fatalf("EBen(best)=%v", e)
	}
	// Full aggregation → 1.
	if e := EBen(15, gs); math.Abs(e-1) > 1e-12 {
		t.Fatalf("EBen(sum)=%v", e)
	}
	// Failure → −1.
	if e := EBen(0, gs); math.Abs(e+1) > 1e-12 {
		t.Fatalf("EBen(0)=%v", e)
	}
	// Halfway below best → −0.5.
	if e := EBen(5, gs); math.Abs(e+0.5) > 1e-12 {
		t.Fatalf("EBen(5)=%v", e)
	}
	// Better than the sum can exceed 1.
	if e := EBen(20, gs); e <= 1 {
		t.Fatalf("EBen(20)=%v", e)
	}
}

func TestRunSingleScenarioAllProtocols(t *testing.T) {
	sc2 := GenerateScenarios(LowBDPNoLoss, 3)[1]
	for proto := ProtoTCP; proto <= ProtoMPQUIC; proto++ {
		res := Run(sc2, proto, 256<<10, 0, 42)
		if !res.Completed {
			t.Fatalf("%v did not complete scenario %v", proto, sc2)
		}
		if res.Elapsed <= 0 || res.GoodputBps <= 0 {
			t.Fatalf("%v bogus result %+v", proto, res)
		}
	}
}

func TestRunStartPathMatters(t *testing.T) {
	// Strongly asymmetric scenario: single-path runs on path 0 vs 1
	// must differ markedly.
	sc := Scenario{ID: 1, Class: "asym"}
	sc.Paths[0] = pathSpec(50, 10*time.Millisecond, 50*time.Millisecond, 0)
	sc.Paths[1] = pathSpec(1, 100*time.Millisecond, 50*time.Millisecond, 0)
	fast := Run(sc, ProtoQUIC, 512<<10, 0, 1)
	slow := Run(sc, ProtoQUIC, 512<<10, 1, 1)
	if !fast.Completed || !slow.Completed {
		t.Fatal("runs incomplete")
	}
	if fast.Elapsed*3 > slow.Elapsed {
		t.Fatalf("start path ignored: fast=%v slow=%v", fast.Elapsed, slow.Elapsed)
	}
}

func TestRunMedianPicksMiddle(t *testing.T) {
	sc := GenerateScenarios(LowBDPNoLoss, 3)[0]
	res := RunMedian(sc, ProtoQUIC, 128<<10, 0, 3, 9)
	if !res.Completed {
		t.Fatal("median run incomplete")
	}
}

func TestSmallGridProducesFigureData(t *testing.T) {
	fd, err := RunGrid(GridConfig{
		Class:     LowBDPNoLoss,
		Scenarios: 4,
		Size:      256 << 10,
		Reps:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Results) != 4 {
		t.Fatalf("%d results", len(fd.Results))
	}
	single, multi := fd.TimeRatios()
	if len(single) != 8 || len(multi) != 8 {
		t.Fatalf("ratios %d/%d, want 8/8", len(single), len(multi))
	}
	for _, r := range append(single, multi...) {
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			t.Fatalf("bogus ratio %v", r)
		}
	}
	best, worst := fd.AggBenefits(FamilyQUIC)
	if len(best) != 4 || len(worst) != 4 {
		t.Fatalf("agg benefit split %d/%d", len(best), len(worst))
	}
	for _, e := range append(best, worst...) {
		if e < -1.5 || e > 2.5 || math.IsNaN(e) {
			t.Fatalf("EBen %v out of plausible range", e)
		}
	}
	frac, box := fd.BenefitSummary(FamilyQUIC)
	if math.IsNaN(frac) || box.N != 8 {
		t.Fatalf("summary %v %+v", frac, box)
	}
}

func TestDeadlineScalesWithSize(t *testing.T) {
	sc := Scenario{}
	sc.Paths[0] = pathSpec(0.1, 0, 0, 0)
	sc.Paths[1] = pathSpec(0.1, 0, 0, 0)
	d := deadlineFor(sc, ProtoQUIC, LargeTransfer, 0)
	// Ideal is ~1678 s; deadline must exceed it comfortably.
	if d < 2*1678*time.Second {
		t.Fatalf("deadline %v too tight", d)
	}
	small := deadlineFor(sc, ProtoQUIC, 1024, 0)
	if small < 2*time.Minute {
		t.Fatalf("floor missing: %v", small)
	}
	// Single-path deadline must track the path actually used.
	asym := Scenario{}
	asym.Paths[0] = pathSpec(100, 0, 0, 0)
	asym.Paths[1] = pathSpec(0.1, 0, 0, 0)
	slow := deadlineFor(asym, ProtoTCP, LargeTransfer, 1)
	if slow < 2*1678*time.Second {
		t.Fatalf("single-path deadline %v ignores start path", slow)
	}
	multi := deadlineFor(asym, ProtoMPQUIC, LargeTransfer, 1)
	if multi >= slow {
		t.Fatalf("multipath deadline should use the better path: %v", multi)
	}
}

func TestHandoverExperiment(t *testing.T) {
	hc := DefaultHandoverConfig()
	hc.Duration = 8 * time.Second
	res := RunHandover(hc)
	if len(res.Samples) < 15 {
		t.Fatalf("only %d samples", len(res.Samples))
	}
	if !res.ClientMarkedPF {
		t.Fatal("client did not mark the dead path potentially failed")
	}
	if !res.ServerSawPathsFrame {
		t.Fatal("PATHS frame did not reach the server")
	}
	// Pre-failure delays sit near the initial RTT; post-recovery near
	// the second path's RTT. One spike (the RTO) in between.
	var pre, post []time.Duration
	for _, s := range res.Samples {
		switch {
		case s.SentAt < hc.Failure.Start-time.Second:
			pre = append(pre, s.Delay)
		case s.SentAt > hc.Failure.Start+2*time.Second:
			post = append(post, s.Delay)
		}
	}
	if len(pre) == 0 || len(post) == 0 {
		t.Fatal("missing pre/post samples")
	}
	for _, d := range pre {
		if d > 60*time.Millisecond {
			t.Fatalf("pre-failure delay %v too high", d)
		}
	}
	for _, d := range post {
		if d > 100*time.Millisecond {
			t.Fatalf("post-recovery delay %v too high", d)
		}
	}
}

func TestEBenEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		gm   float64
		gs   []float64
		want float64
	}{
		// gmax <= 0: no working single path, nothing to compare against.
		{"no single-path goodput", 5, []float64{0, 0}, 0},
		{"no single paths at all", 5, nil, 0},
		{"negative goodputs ignored", 5, []float64{-1, -2}, 0},
		// sum == gmax: one single path carries everything, so the
		// aggregation denominator (ΣGi − Gmax) vanishes.
		{"single usable path, gm above", 8, []float64{4, 0}, 0},
		{"single usable path, gm equal", 4, []float64{4}, 0},
		// Failed multipath transfer: goodput ~0 maps to the −1 region.
		{"failed multipath", 0, []float64{4, 2}, -1},
		// Interior points of both branches.
		{"below best path", 2, []float64{4, 2}, -0.5},
		{"equals best path", 4, []float64{4, 2}, 0},
		{"full aggregation", 6, []float64{4, 2}, 1},
		{"half aggregation", 5, []float64{4, 2}, 0.5},
	}
	for _, c := range cases {
		if got := EBen(c.gm, c.gs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: EBen(%v, %v) = %v, want %v", c.name, c.gm, c.gs, got, c.want)
		}
	}
}

// pathSpec is a test helper.
func pathSpec(mbps float64, rtt, queue time.Duration, loss float64) netem.PathSpec {
	return netem.PathSpec{CapacityMbps: mbps, RTT: rtt, QueueDelay: queue, LossRate: loss}
}
