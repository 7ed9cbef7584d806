package expdesign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mpquic/internal/trace"
)

func obsScenario() Scenario {
	sc := Scenario{ID: 7, Class: "obs"}
	sc.Paths[0] = pathSpec(8, 20*time.Millisecond, 20*time.Millisecond, 0)
	sc.Paths[1] = pathSpec(2, 60*time.Millisecond, 20*time.Millisecond, 0)
	return sc
}

// deadScenario cannot complete: both paths drop every packet.
func deadScenario() Scenario {
	sc := Scenario{ID: 9, Class: "dead"}
	sc.Paths[0] = pathSpec(8, 20*time.Millisecond, 0, 1)
	sc.Paths[1] = pathSpec(8, 20*time.Millisecond, 0, 1)
	return sc
}

// Sampling must be a pure observer (identical run outcome) and
// deterministic (same seed, byte-identical series).
func TestRunSamplingDeterministicAndPure(t *testing.T) {
	sc := obsScenario()
	base := Run(sc, ProtoMPQUIC, 256<<10, 0, 11)
	opts := RunOpts{SampleInterval: 50 * time.Millisecond}
	r1 := RunWithOpts(sc, ProtoMPQUIC, 256<<10, 0, 11, opts)
	r2 := RunWithOpts(sc, ProtoMPQUIC, 256<<10, 0, 11, opts)

	if r1.Elapsed != base.Elapsed || r1.GoodputBps != base.GoodputBps || r1.Completed != base.Completed {
		t.Fatalf("sampling perturbed the run: base=%+v sampled=%+v", base, r1)
	}
	stripped := r1.Metrics
	stripped.Series = nil
	if !reflect.DeepEqual(stripped, base.Metrics) {
		t.Fatalf("sampling perturbed metrics:\nbase    %+v\nsampled %+v", base.Metrics, stripped)
	}

	if len(r1.Metrics.Series) == 0 {
		t.Fatal("no samples recorded")
	}
	rec1 := &trace.SeriesRecorder{Samples: r1.Metrics.Series}
	rec2 := &trace.SeriesRecorder{Samples: r2.Metrics.Series}
	var paths [2]int
	for _, s := range rec1.Samples {
		paths[s.Path]++
	}
	if paths[0] == 0 || paths[1] == 0 {
		t.Fatalf("MPQUIC series has %v samples on paths 0 and 1, want both", paths)
	}
	var b1, b2 bytes.Buffer
	if err := rec1.EncodeJSONL(&b1); err != nil {
		t.Fatal(err)
	}
	if err := rec2.EncodeJSONL(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("same-seed series not byte-identical")
	}
	// Samples must carry real transport state, in nondecreasing time.
	var sawCwnd bool
	last := time.Duration(-1)
	for _, s := range r1.Metrics.Series {
		if s.T < last {
			t.Fatalf("samples out of order: %v after %v", s.T, last)
		}
		last = s.T
		if s.Cwnd > 0 {
			sawCwnd = true
		}
	}
	if !sawCwnd {
		t.Fatal("no sample carries a positive cwnd")
	}
}

// An armed flight recorder must not change the run and must stay
// silent on a healthy run.
func TestFlightRecorderPureAndSilentWhenHealthy(t *testing.T) {
	sc := obsScenario()
	base := Run(sc, ProtoTCP, 128<<10, 0, 5)
	dumps := 0
	// A clean scenario stays far below DefaultRTOStorm.
	opts := RunOpts{FlightDump: func(int, string, *trace.FlightRecorder) { dumps++ }}
	res := RunWithOpts(sc, ProtoTCP, 128<<10, 0, 5, opts)
	if !reflect.DeepEqual(base, res) {
		t.Fatalf("flight recorder perturbed the run:\nbase  %+v\narmed %+v", base, res)
	}
	if dumps != 0 {
		t.Fatalf("healthy run dumped %d times", dumps)
	}
}

// A run that cannot complete must dump exactly once per repetition,
// classified as a timeout, with events in the ring.
func TestFlightDumpOnTimeout(t *testing.T) {
	sc := deadScenario()
	type dump struct {
		rep     int
		anomaly string
		seen    uint64
		held    int
	}
	var dumps []dump
	opts := RunOpts{
		FlightDump: func(rep int, anomaly string, rec *trace.FlightRecorder) {
			dumps = append(dumps, dump{rep, anomaly, rec.Dropped() + uint64(rec.Len()), rec.Len()})
		},
	}
	res := RunMedian(sc, ProtoQUIC, 64<<10, 0, 2, 3, opts)
	if res.Completed {
		t.Fatal("dead scenario completed?")
	}
	if len(dumps) != 2 {
		t.Fatalf("%d dumps, want one per repetition (2)", len(dumps))
	}
	for i, d := range dumps {
		if d.rep != i {
			t.Errorf("dump %d has rep %d", i, d.rep)
		}
		if d.anomaly != "timeout" {
			t.Errorf("anomaly = %q, want timeout", d.anomaly)
		}
		if d.seen == 0 {
			t.Error("flight recorder saw no events on a sending connection")
		}
		if want := min(d.seen, trace.DefaultFlightEvents); uint64(d.held) != want {
			t.Errorf("ring holds %d of %d events seen, want %d", d.held, d.seen, want)
		}
	}
}

// RTO-storm classification: at the DefaultRTOStorm threshold the dump
// decision must agree exactly with the run's RTO count, whichever way
// the seeded run goes. At 20 % loss this run completes after about
// twice DefaultRTOStorm timeouts, so the storm side is the one taken.
func TestFlightDumpRTOStormConsistency(t *testing.T) {
	sc := Scenario{ID: 3, Class: "lossy"}
	sc.Paths[0] = pathSpec(4, 30*time.Millisecond, 10*time.Millisecond, 0.2)
	sc.Paths[1] = pathSpec(4, 30*time.Millisecond, 10*time.Millisecond, 0.2)
	var anomalies []string
	opts := RunOpts{
		FlightDump: func(_ int, anomaly string, _ *trace.FlightRecorder) {
			anomalies = append(anomalies, anomaly)
		},
	}
	res := RunWithOpts(sc, ProtoTCP, 256<<10, 0, 21, opts)
	stormed := res.Completed && res.Metrics.RTOs >= DefaultRTOStorm
	switch {
	case stormed && (len(anomalies) != 1 || anomalies[0] != "rto_storm"):
		t.Fatalf("run had %d RTOs but dumps = %v", res.Metrics.RTOs, anomalies)
	case !res.Completed && (len(anomalies) != 1 || anomalies[0] != "timeout"):
		t.Fatalf("incomplete run, dumps = %v", anomalies)
	case res.Completed && !stormed && len(anomalies) != 0:
		t.Fatalf("clean run dumped: %v", anomalies)
	}
}

// Grid-level wiring: observability armed through GridConfig must not
// change results, and a healthy grid writes no dump files.
func TestGridObservabilityMatchesPlain(t *testing.T) {
	plain := GridConfig{Class: LowBDPNoLoss, Scenarios: 2, Size: 128 << 10, Reps: 1, Workers: 1}
	fdA, err := RunGrid(plain)
	if err != nil {
		t.Fatal(err)
	}

	armed := plain
	armed.FlightDir = t.TempDir()
	fdB, err := RunGrid(armed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fdA.Results, fdB.Results) {
		t.Fatal("armed flight recorder changed grid results")
	}
	entries, err := os.ReadDir(armed.FlightDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("healthy grid wrote %d dump files", len(entries))
	}

	sampled := plain
	sampled.SampleInterval = 100 * time.Millisecond
	fdC, err := RunGrid(sampled)
	if err != nil {
		t.Fatal(err)
	}
	sawSeries := false
	for i, sr := range fdC.Results {
		for p := range sr.Runs {
			for s := range sr.Runs[p] {
				got := sr.Runs[p][s]
				want := fdA.Results[i].Runs[p][s]
				if len(got.Metrics.Series) > 0 {
					sawSeries = true
				}
				got.Metrics.Series = nil
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("sampling changed grid results at scenario %d proto %d start %d", i, p, s)
				}
			}
		}
	}
	if !sawSeries {
		t.Fatal("sampled grid recorded no series at all")
	}
}

func TestWriteFlightDumpFile(t *testing.T) {
	dir := t.TempDir()
	rec := trace.NewFlightRecorder(8)
	rec.Trace(trace.Event{Type: trace.RTOFired, Path: 1})
	cfg := GridConfig{Class: LowBDPNoLoss, FlightDir: dir}
	sc := Scenario{ID: 12}
	writeFlightDump(cfg, sc, ProtoMPQUIC, 1, 2, "timeout", rec)
	want := filepath.Join(dir, "flight-low-BDP-no-loss-s12-MPQUIC-start1-rep2-timeout.jsonl")
	data, err := os.ReadFile(want)
	if err != nil {
		t.Fatalf("dump file missing: %v", err)
	}
	if len(bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))) != 2 {
		t.Fatalf("dump = %q, want header + 1 event", data)
	}
}

// TestTracedLossesMatchCounted: the sender traces packet_lost for every
// loss it counts, whichever rule declared it (packet or time threshold,
// FACK, RTO), so a qlog file, a flight dump and RunMetrics agree.
func TestTracedLossesMatchCounted(t *testing.T) {
	sc := Scenario{ID: 3, Class: "lossy"}
	sc.Paths[0] = pathSpec(20, 40*time.Millisecond, 50*time.Millisecond, 0.02)
	sc.Paths[1] = pathSpec(10, 60*time.Millisecond, 50*time.Millisecond, 0.01)
	for _, proto := range []Protocol{ProtoTCP, ProtoMPTCP, ProtoQUIC, ProtoMPQUIC} {
		c := trace.NewCounter()
		res := RunWithOpts(sc, proto, 4<<20, 0, 1, RunOpts{Tracer: c, Side: "server"})
		if !res.Completed {
			t.Fatalf("%s: transfer did not complete", proto)
		}
		traced, counted := uint64(c.Counts[trace.PacketLost]), res.Metrics.PacketsLost
		t.Logf("%s: %d packet_lost traced, %d counted", proto, traced, counted)
		if traced != counted || counted == 0 {
			t.Errorf("%s: %d packet_lost events traced, %d losses counted", proto, traced, counted)
		}
	}
}
