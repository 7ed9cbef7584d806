package expdesign

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mpquic/internal/stats"
	"mpquic/internal/trace"
)

// Repetitions is the paper's per-point repetition count (median of 3).
const Repetitions = 3

// Transfer sizes of the evaluation.
const (
	// LargeTransfer is the 20 MB download of §4.1.
	LargeTransfer = 20 << 20
	// ShortTransfer is the 256 KB download of §4.2.
	ShortTransfer = 256 << 10
)

// ScenarioResult holds the eight median runs of one scenario:
// {TCP, QUIC, MPTCP, MPQUIC} × {start on path 0, start on path 1}.
type ScenarioResult struct {
	Scenario Scenario
	// Indexed [protocol][startPath].
	Runs [4][2]RunResult
}

// GridConfig parameterizes a figure-grid execution.
type GridConfig struct {
	Class     Class
	Scenarios int    // per-class scenario count (253 in the paper)
	Size      uint64 // transfer size
	Reps      int    // repetitions per point (3 in the paper)
	Workers   int    // parallel simulations (defaults to GOMAXPROCS)
	// ArtifactPath, when non-empty, makes the grid checkpointed:
	// every completed scenario is appended to this JSONL file as it
	// finishes, and scenarios already on disk — keyed by (class seed,
	// scenario ID, size, reps) — are loaded instead of recomputed, so
	// an interrupted grid resumes where it stopped.
	ArtifactPath string
	// Shard/NumShards split the grid deterministically across
	// processes or machines: with NumShards > 1 only scenarios with
	// ID % NumShards == Shard run here. Point each shard at its own
	// ArtifactPath and merge them with LoadFigureData.
	Shard     int
	NumShards int
	// Progress, when non-nil, is called after each completed scenario
	// (including scenarios restored from the checkpoint).
	Progress func(done, total int)
	// SampleInterval, when positive, records per-path time series
	// (cwnd, smoothed RTT, bytes in flight, cumulative bytes) for every
	// run at this simulated-time cadence; each artifact carries its
	// median run's series in RunMetrics.Series. Zero disables sampling
	// and keeps artifacts byte-identical to sampling-free versions.
	SampleInterval time.Duration
	// FlightDir, when non-empty, arms a bounded flight recorder on
	// every run and writes a post-mortem JSONL dump into this directory
	// whenever a run ends anomalously (timeout, simulator abort, or an
	// RTO storm: DefaultRTOStorm timeouts). The ring holds the last
	// trace.DefaultFlightEvents events. Healthy runs produce no files.
	// Dump writing is best-effort: an I/O failure never fails the grid.
	FlightDir string
}

// DefaultRTOStorm is the sender RTO count at which a completed run is
// still considered anomalous: a transfer that needed this many
// timeouts was effectively stalled repeatedly and is worth a
// post-mortem.
const DefaultRTOStorm = 10

// FigureData is the raw material of one figure: all scenario results
// of one (class, size) grid.
type FigureData struct {
	Class   string
	Size    uint64
	Results []ScenarioResult
}

// Seed derivation. Every simulated run is seeded as
//
//	seed = ClassSeed·1_000_003 + ScenarioID·8191 + proto·131 + start·17 + 1 + rep·7919
//
// where the rep term is added by RunMedian. The five constants are
// pairwise-distinct primes acting as mixed-radix strides: each
// coordinate moves the seed by a stride no combination of the other
// coordinates (over the evaluation's ranges — 253 scenarios, 4
// protocols, 2 initial paths, ≤ 3 repetitions, class seeds 101–104)
// can reproduce, so no two runs of the paper grid ever share a PRNG
// stream (TestRunSeedsCollisionFree enumerates all of them). Because
// each run's seed depends only on its own coordinates, results are
// reproducible point-wise: re-running any single (scenario, proto,
// start, rep) in isolation gives bit-identical output, which is what
// makes checkpointed grids resumable and shards mergeable.
func runSeed(class Class, scenarioID int, proto Protocol, start int) uint64 {
	return class.Seed*1_000_003 + uint64(scenarioID)*8191 +
		uint64(proto)*131 + uint64(start)*17 + 1
}

// runScenario executes one scenario's eight median runs, threading the
// grid's observability settings into each.
func runScenario(cfg GridConfig, sc Scenario) ScenarioResult {
	sr := ScenarioResult{Scenario: sc}
	for proto := ProtoTCP; proto <= ProtoMPQUIC; proto++ {
		for start := 0; start < 2; start++ {
			seed := runSeed(cfg.Class, sc.ID, proto, start)
			opts := RunOpts{SampleInterval: cfg.SampleInterval}
			if cfg.FlightDir != "" {
				opts.FlightEvents = trace.DefaultFlightEvents
				opts.RTOStorm = DefaultRTOStorm
				proto, start := proto, start
				opts.FlightDump = func(rep int, anomaly string, rec *trace.FlightRecorder) {
					writeFlightDump(cfg, sc, proto, start, rep, anomaly, rec)
				}
			}
			sr.Runs[proto][start] = RunMedianOpts(sc, proto, cfg.Size, start, cfg.Reps, seed, opts)
		}
	}
	return sr
}

// writeFlightDump persists one anomalous run's flight-recorder ring as
// <FlightDir>/flight-<class>-s<scenario>-<proto>-start<start>-rep<rep>-<anomaly>.jsonl.
// The name is a pure function of the run coordinates, so re-running a
// grid overwrites (never duplicates) its dumps. Best-effort: dump I/O
// failures are swallowed — a broken disk should not fail a grid that
// already has its results.
func writeFlightDump(cfg GridConfig, sc Scenario, proto Protocol, start, rep int, anomaly string, rec *trace.FlightRecorder) {
	name := fmt.Sprintf("flight-%s-s%d-%s-start%d-rep%d-%s.jsonl",
		cfg.Class.Name, sc.ID, proto, start, rep, anomaly)
	f, err := os.Create(filepath.Join(cfg.FlightDir, name))
	if err != nil {
		return
	}
	defer f.Close()
	_ = rec.DumpJSONL(f, anomaly)
}

// shardScenarios selects this process's share of the grid.
func shardScenarios(cfg GridConfig) []Scenario {
	all := GenerateScenarios(cfg.Class, cfg.Scenarios)
	if cfg.NumShards <= 1 {
		return all
	}
	var mine []Scenario
	for _, sc := range all {
		if sc.ID%cfg.NumShards == cfg.Shard {
			mine = append(mine, sc)
		}
	}
	return mine
}

// RunGrid executes the grid for one class: every scenario × 4
// protocols × 2 initial paths × Reps repetitions, in parallel. With
// ArtifactPath set the grid is checkpointed (completed scenarios are
// persisted in scenario order as they finish — worker completion
// order never reaches the file — and skipped on restart); with NumShards > 1
// only this shard's scenarios run. The returned FigureData covers this
// shard only — merge shard artifacts with LoadFigureData.
func RunGrid(cfg GridConfig) (FigureData, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Reps <= 0 {
		cfg.Reps = Repetitions
	}
	if cfg.NumShards > 1 && (cfg.Shard < 0 || cfg.Shard >= cfg.NumShards) {
		return FigureData{}, fmt.Errorf("expdesign: shard %d out of range 0..%d", cfg.Shard, cfg.NumShards-1)
	}
	scenarios := shardScenarios(cfg)
	results := make([]ScenarioResult, len(scenarios))

	var cp *Checkpoint
	if cfg.ArtifactPath != "" {
		var err error
		if cp, err = OpenCheckpoint(cfg.ArtifactPath); err != nil {
			return FigureData{}, err
		}
		defer cp.Close()
	}

	// Resume: satisfy scenarios from the checkpoint, queue the rest.
	var pending []int
	for i, sc := range scenarios {
		if cp != nil {
			if sr, ok := cp.Lookup(cfg, sc); ok {
				results[i] = sr
				continue
			}
		}
		pending = append(pending, i)
	}
	done := len(scenarios) - len(pending)
	if cfg.Progress != nil && done > 0 {
		cfg.Progress(done, len(scenarios))
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var persistErr error
	// Workers complete scenarios in wall-clock order, which is not
	// deterministic; the checkpoint must append in scenario order so
	// same-seed runs produce byte-identical artifacts and a resumed
	// run always sees a clean prefix. Completed records wait in
	// `results` until every lower-index pending scenario has been
	// persisted (written indexes into pending, which is ascending).
	written := 0
	completed := make([]bool, len(scenarios))
	jobs := make(chan int)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sr := runScenario(cfg, scenarios[i])
				results[i] = sr
				mu.Lock()
				completed[i] = true
				if cp != nil {
					for written < len(pending) && completed[pending[written]] {
						if err := cp.Append(cfg, results[pending[written]]); err != nil && persistErr == nil {
							persistErr = err
						}
						written++
					}
				}
				done++
				// Progress runs under the lock: callbacks see done
				// strictly increasing and need no locking of their own.
				if cfg.Progress != nil {
					cfg.Progress(done, len(scenarios))
				}
				mu.Unlock()
			}
		}()
	}
	for _, i := range pending {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if persistErr != nil {
		return FigureData{}, persistErr
	}
	return FigureData{Class: cfg.Class.Name, Size: cfg.Size, Results: results}, nil
}

// TimeRatios extracts the Fig. 3/5/8/9 CDF inputs: for each of the
// 2×N (scenario, initial path) sims, the ratio of the TCP-family time
// to the QUIC-family time. Ratio > 1 means QUIC-family is faster.
func (fd FigureData) TimeRatios() (singlePath, multiPath []float64) {
	for _, sr := range fd.Results {
		for start := 0; start < 2; start++ {
			tTCP := sr.Runs[ProtoTCP][start].Elapsed.Seconds()
			tQUIC := sr.Runs[ProtoQUIC][start].Elapsed.Seconds()
			tMPTCP := sr.Runs[ProtoMPTCP][start].Elapsed.Seconds()
			tMPQUIC := sr.Runs[ProtoMPQUIC][start].Elapsed.Seconds()
			if tQUIC > 0 {
				singlePath = append(singlePath, tTCP/tQUIC)
			}
			if tMPQUIC > 0 {
				multiPath = append(multiPath, tMPTCP/tMPQUIC)
			}
		}
	}
	return singlePath, multiPath
}

// Family selects a single-path/multipath protocol pair for the
// experimental aggregation benefit.
type Family int

// The two protocol families compared in Figs. 4/6/7/10.
const (
	FamilyTCP  Family = iota // MPTCP vs TCP
	FamilyQUIC               // MPQUIC vs QUIC
)

func (f Family) String() string {
	if f == FamilyTCP {
		return "MPTCP vs. TCP"
	}
	return "MPQUIC vs. QUIC"
}

// EBen computes the experimental aggregation benefit of §4.1:
//
//	        Gm − Gmax
//	EBen = ───────────────   if Gm ≥ Gmax,
//	        (ΣGi) − Gmax
//
//	        Gm − Gmax
//	EBen = ───────────       otherwise,
//	          Gmax
//
// where Gi are the single-path goodputs, Gmax their maximum, and Gm
// the multipath goodput. 0 ⇒ multipath equals the best single path;
// 1 ⇒ full aggregation; −1 ⇒ the multipath transfer failed.
func EBen(gm float64, gs []float64) float64 {
	gmax, sum := 0.0, 0.0
	for _, g := range gs {
		sum += g
		if g > gmax {
			gmax = g
		}
	}
	if gmax <= 0 {
		return 0
	}
	if gm >= gmax {
		den := sum - gmax
		if den <= 0 {
			return 0
		}
		return (gm - gmax) / den
	}
	return (gm - gmax) / gmax
}

// AggBenefits extracts the Fig. 4/6/7/10 boxes for one family, split
// by whether the multipath connection started on the best or the
// worst performing path (measured by single-path goodput, as in [1]).
func (fd FigureData) AggBenefits(f Family) (bestFirst, worstFirst []float64) {
	spProto, mpProto := ProtoTCP, ProtoMPTCP
	if f == FamilyQUIC {
		spProto, mpProto = ProtoQUIC, ProtoMPQUIC
	}
	for _, sr := range fd.Results {
		gs := []float64{
			sr.Runs[spProto][0].GoodputBps,
			sr.Runs[spProto][1].GoodputBps,
		}
		best := 0
		if gs[1] > gs[0] {
			best = 1
		}
		for start := 0; start < 2; start++ {
			gm := sr.Runs[mpProto][start].GoodputBps
			e := EBen(gm, gs)
			if start == best {
				bestFirst = append(bestFirst, e)
			} else {
				worstFirst = append(worstFirst, e)
			}
		}
	}
	return bestFirst, worstFirst
}

// BenefitSummary renders the headline statistics the paper quotes for
// a family: the fraction of scenarios (both initial paths pooled)
// where multipath beats the best single path (EBen > 0).
func (fd FigureData) BenefitSummary(f Family) (fractionPositive float64, box stats.Box) {
	best, worst := fd.AggBenefits(f)
	all := append(append([]float64{}, best...), worst...)
	return stats.FractionAbove(all, 0), stats.BoxOf(all)
}
