package expdesign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mpquic/internal/netem"
)

func TestDynamicClassScenarioGeneration(t *testing.T) {
	const n = 16
	for _, c := range dynamicClasses {
		scs := GenerateScenarios(c, n)
		if len(scs) != n {
			t.Fatalf("%s: %d scenarios, want %d", c.Name, len(scs), n)
		}
		again := GenerateScenarios(c, n)
		if !reflect.DeepEqual(scs, again) {
			t.Fatalf("%s: generation is not deterministic", c.Name)
		}
		for _, sc := range scs {
			d := sc.Dynamics
			if d == nil {
				t.Fatalf("%s#%d: dynamic class produced a static scenario", c.Name, sc.ID)
			}
			if d.Kind != c.Dynamics {
				t.Fatalf("%s#%d: kind %q, want %q", c.Name, sc.ID, d.Kind, c.Dynamics)
			}
			switch d.Kind {
			case DynBursty:
				if d.MeanBurstPkts < minBurstPkts || d.MeanBurstPkts > maxBurstPkts {
					t.Fatalf("%s#%d: burst %v outside [%v,%v]", c.Name, sc.ID, d.MeanBurstPkts, minBurstPkts, maxBurstPkts)
				}
				// A bursty scenario must have loss to convert.
				if sc.Paths[0].LossRate <= 0 && sc.Paths[1].LossRate <= 0 {
					t.Fatalf("%s#%d: bursty scenario with no lossy path", c.Name, sc.ID)
				}
			case DynOscillate:
				if d.Period < minOscPeriod || d.Period > maxOscPeriod {
					t.Fatalf("%s#%d: period %v outside range", c.Name, sc.ID, d.Period)
				}
				if d.Depth < minOscDepth || d.Depth > maxOscDepth {
					t.Fatalf("%s#%d: depth %v outside range", c.Name, sc.ID, d.Depth)
				}
			case DynFlaky:
				if d.Period < minFlapPeriod || d.Period > maxFlapPeriod {
					t.Fatalf("%s#%d: period %v outside range", c.Name, sc.ID, d.Period)
				}
				if d.Outage < minFlapOutage || d.Outage > maxFlapOutage {
					t.Fatalf("%s#%d: outage %v outside range", c.Name, sc.ID, d.Outage)
				}
				if d.Outage >= d.Period {
					t.Fatalf("%s#%d: outage %v >= period %v", c.Name, sc.ID, d.Outage, d.Period)
				}
			}
			if !strings.Contains(sc.String(), "+") {
				t.Fatalf("%s#%d: String() does not mention the dynamics: %s", c.Name, sc.ID, sc)
			}
		}
	}
	// Static classes must stay static (and their artifacts unchanged).
	for _, c := range classes {
		for _, sc := range GenerateScenarios(c, 4) {
			if sc.Dynamics != nil {
				t.Fatalf("%s#%d: static class grew dynamics", c.Name, sc.ID)
			}
		}
	}
}

func TestDynamicScenariosSurviveArtifactRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	cfg := testGridConfig(path)
	cfg.Class = BurstyLossGrid
	cfg.Scenarios = 2
	ref := mustRunGrid(t, cfg)
	for _, sr := range ref.Results {
		if sr.Scenario.Dynamics == nil {
			t.Fatalf("scenario %d lost its dynamics before persisting", sr.Scenario.ID)
		}
	}
	loaded, err := LoadFigureData(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, ref) {
		t.Fatal("reloaded dynamic grid differs from the in-memory run")
	}
}

func TestDynamicGridSameSeedByteIdenticalArtifacts(t *testing.T) {
	dir := t.TempDir()
	var contents [][]byte
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, ArtifactFileName(BurstyLossGrid, 128<<10, 0, 1))
		cfg := testGridConfig(path)
		cfg.Class = BurstyLossGrid
		cfg.Scenarios = 2
		cfg.Workers = 2 // concurrency must not leak into the artifact order
		mustRunGrid(t, cfg)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		contents = append(contents, b)
		os.Remove(path)
	}
	if !bytes.Equal(contents[0], contents[1]) {
		t.Fatal("two same-seed dynamic grid runs produced different artifact bytes")
	}
}

func TestDynamicGridCheckpointResume(t *testing.T) {
	base := testGridConfig("")
	base.Class = BurstyLossGrid
	reference := mustRunGrid(t, base)

	path := filepath.Join(t.TempDir(), "grid.jsonl")
	partial := testGridConfig(path)
	partial.Class = BurstyLossGrid
	partial.Shard, partial.NumShards = 0, 2
	mustRunGrid(t, partial)
	wrote := countLines(t, path)
	if wrote == 0 || wrote >= len(reference.Results) {
		t.Fatalf("partial run persisted %d/%d scenarios, want a strict subset", wrote, len(reference.Results))
	}

	resumed := testGridConfig(path)
	resumed.Class = BurstyLossGrid
	got := mustRunGrid(t, resumed)
	if !reflect.DeepEqual(got, reference) {
		t.Fatal("resumed dynamic grid differs from uninterrupted run")
	}
	if appended := countLines(t, path) - wrote; appended != len(reference.Results)-wrote {
		t.Fatalf("resume appended %d records, want the %d missing", appended, len(reference.Results)-wrote)
	}
}

// TestBurstinessChangesTransferTimes is the subsystem's end-to-end
// acceptance check: a Gilbert–Elliott loss process with the same
// average loss rate as a Bernoulli one must yield measurably different
// transfer-time behaviour. With ~190 packets per transfer and 2% loss,
// Bernoulli spreads ~4 drops evenly over every run, while a 12-packet
// mean burst concentrates them: most runs see none, a few see a long
// burst — same mean loss, very different distribution.
func TestBurstinessChangesTransferTimes(t *testing.T) {
	spec := netem.PathSpec{CapacityMbps: 5, RTT: 30 * time.Millisecond, QueueDelay: 100 * time.Millisecond, LossRate: 0.02}
	static := Scenario{ID: 0, Class: "ge-vs-bernoulli", Paths: [2]netem.PathSpec{spec, spec}}
	bursty := static
	bursty.Dynamics = &Dynamics{Kind: DynBursty, MeanBurstPkts: 12}

	const size, seeds = 256 << 10, 12
	var diff int
	var bern, ge []time.Duration
	for seed := uint64(1); seed <= seeds; seed++ {
		b := Run(static, ProtoQUIC, size, 0, seed)
		g := Run(bursty, ProtoQUIC, size, 0, seed)
		if !b.Completed || !g.Completed {
			t.Fatalf("seed %d: incomplete run (bernoulli=%v ge=%v)", seed, b.Completed, g.Completed)
		}
		bern = append(bern, b.Elapsed)
		ge = append(ge, g.Elapsed)
		if b.Elapsed != g.Elapsed {
			diff++
		}
	}
	if diff < seeds/2 {
		t.Fatalf("only %d/%d seeds differ between Bernoulli and GE at equal average loss", diff, seeds)
	}
	// The distributions must differ in spread, not just per-seed noise:
	// bursty loss leaves most transfers untouched and hammers a few.
	spread := func(xs []time.Duration) time.Duration {
		min, max := xs[0], xs[0]
		for _, x := range xs {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		return max - min
	}
	if sb, sg := spread(bern), spread(ge); sb == sg {
		t.Fatalf("identical elapsed-time spread %v for both loss processes", sb)
	}
}

// TestDynamicRunsDeterministic pins the per-run property the grid
// artifacts rely on: same scenario + seed -> identical result for every
// dynamics kind, different seed -> a different packet-level outcome.
func TestDynamicRunsDeterministic(t *testing.T) {
	for _, c := range dynamicClasses {
		sc := GenerateScenarios(c, 2)[1]
		for start := 0; start < 2; start++ {
			a := Run(sc, ProtoMPQUIC, 128<<10, start, 42)
			b := Run(sc, ProtoMPQUIC, 128<<10, start, 42)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s start=%d: same-seed runs differ", c.Name, start)
			}
		}
	}
}

func TestFlakyDeadlinePadding(t *testing.T) {
	spec := netem.PathSpec{CapacityMbps: 5, RTT: 30 * time.Millisecond, QueueDelay: 100 * time.Millisecond}
	static := Scenario{Paths: [2]netem.PathSpec{spec, spec}}
	flaky := static
	flaky.Dynamics = &Dynamics{Kind: DynFlaky, Period: 2 * time.Second, Outage: time.Second}
	ds := deadlineFor(static, ProtoQUIC, 20<<20, 0)
	df := deadlineFor(flaky, ProtoQUIC, 20<<20, 0)
	if df <= ds {
		t.Fatalf("flaky deadline %v not padded beyond static %v", df, ds)
	}
}
