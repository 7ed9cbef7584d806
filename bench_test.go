// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, plus ablation benchmarks for the §3 design
// choices. Each benchmark runs a (subsampled) grid and reports the
// figure's headline statistics as custom metrics, so
//
//	go test -bench=Fig3 -benchmem
//
// regenerates the Figure 3 numbers. Set MPQUIC_BENCH_SCENARIOS to
// scale the grids (the paper uses 253 scenarios and 3 repetitions;
// cmd/mpq-bench -full runs that scale with progress output).
package mpquic

import (
	"os"
	"strconv"
	"testing"
	"time"

	"mpquic/internal/core"
	"mpquic/internal/expdesign"
	"mpquic/internal/netem"
	"mpquic/internal/stats"
)

// benchScenarios controls grid size: small by default so the full
// bench suite completes in minutes on one core.
func benchScenarios() int {
	if v := os.Getenv("MPQUIC_BENCH_SCENARIOS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 8
}

func benchGrid(b *testing.B, class expdesign.Class, size uint64) expdesign.FigureData {
	b.Helper()
	var fd expdesign.FigureData
	for i := 0; i < b.N; i++ {
		var err error
		fd, err = expdesign.RunGrid(expdesign.GridConfig{
			Class:     class,
			Scenarios: benchScenarios(),
			Size:      size,
			Reps:      1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return fd
}

func reportRatios(b *testing.B, fd expdesign.FigureData) {
	single, multi := fd.TimeRatios()
	b.ReportMetric(stats.Median(single), "median_ratio_tcp/quic")
	b.ReportMetric(stats.Median(multi), "median_ratio_mptcp/mpquic")
	b.ReportMetric(100*stats.FractionAbove(single, 1), "%quic_faster")
	b.ReportMetric(100*stats.FractionAbove(multi, 1), "%mpquic_faster")
}

func reportBenefits(b *testing.B, fd expdesign.FigureData) {
	fracT, boxT := fd.BenefitSummary(expdesign.FamilyTCP)
	fracQ, boxQ := fd.BenefitSummary(expdesign.FamilyQUIC)
	b.ReportMetric(100*fracT, "%mptcp_eben>0")
	b.ReportMetric(100*fracQ, "%mpquic_eben>0")
	b.ReportMetric(boxT.Median, "median_eben_mptcp")
	b.ReportMetric(boxQ.Median, "median_eben_mpquic")
}

// BenchmarkTable1Design regenerates the experimental design of
// Table 1: the WSP selection over both parameter ranges.
func BenchmarkTable1Design(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range expdesign.Classes {
			scs := expdesign.GenerateScenarios(c, expdesign.PaperScenarioCount)
			if len(scs) != expdesign.PaperScenarioCount {
				b.Fatalf("%s: %d scenarios", c.Name, len(scs))
			}
		}
	}
	b.ReportMetric(expdesign.PaperScenarioCount, "scenarios/class")
}

// BenchmarkFig3LowBDPNoLoss20MB: CDF of download-time ratios, 20 MB,
// low-BDP without random losses. Paper: single-path ratio ≈ 1;
// MPQUIC faster than MPTCP in 89% of sims.
func BenchmarkFig3LowBDPNoLoss20MB(b *testing.B) {
	fd := benchGrid(b, expdesign.LowBDPNoLoss, expdesign.LargeTransfer)
	reportRatios(b, fd)
}

// BenchmarkFig4AggBenefitLowBDPNoLoss: experimental aggregation
// benefit boxes. Paper: MPQUIC beats its single-path variant in 77% of
// scenarios, MPTCP in 45%.
func BenchmarkFig4AggBenefitLowBDPNoLoss(b *testing.B) {
	fd := benchGrid(b, expdesign.LowBDPNoLoss, expdesign.LargeTransfer)
	reportBenefits(b, fd)
}

// BenchmarkFig5LowBDPLoss20MB: time-ratio CDFs under random losses.
// Paper: (MP)QUIC nearly always faster than (MP)TCP.
func BenchmarkFig5LowBDPLoss20MB(b *testing.B) {
	fd := benchGrid(b, expdesign.LowBDPLosses, expdesign.LargeTransfer)
	reportRatios(b, fd)
}

// BenchmarkFig6AggBenefitLowBDPLoss: aggregation benefit with random
// losses. Paper: multipath still beneficial to QUIC, higher variance.
func BenchmarkFig6AggBenefitLowBDPLoss(b *testing.B) {
	fd := benchGrid(b, expdesign.LowBDPLosses, expdesign.LargeTransfer)
	reportBenefits(b, fd)
}

// BenchmarkFig7AggBenefitHighBDPNoLoss: aggregation benefit in
// high-BDP environments. Paper: MPTCP positive in only 20% of
// scenarios, MPQUIC in 58%.
func BenchmarkFig7AggBenefitHighBDPNoLoss(b *testing.B) {
	fd := benchGrid(b, expdesign.HighBDPNoLoss, expdesign.LargeTransfer)
	reportBenefits(b, fd)
}

// BenchmarkFig8HighBDPLoss20MB: time ratios in lossy high-BDP
// networks. Paper: (MP)QUIC better copes with loss.
func BenchmarkFig8HighBDPLoss20MB(b *testing.B) {
	fd := benchGrid(b, expdesign.HighBDPLosses, expdesign.LargeTransfer)
	reportRatios(b, fd)
}

// BenchmarkFig9ShortTransfer: 256 KB downloads. Paper: QUIC beats
// TCP thanks to the 1-RTT vs 3-RTT handshake.
func BenchmarkFig9ShortTransfer(b *testing.B) {
	fd := benchGrid(b, expdesign.LowBDPNoLoss, expdesign.ShortTransfer)
	reportRatios(b, fd)
}

// BenchmarkFig10AggBenefitShort: aggregation benefit for short
// transfers. Paper: multipath is not useful for short transfers.
func BenchmarkFig10AggBenefitShort(b *testing.B) {
	fd := benchGrid(b, expdesign.LowBDPNoLoss, expdesign.ShortTransfer)
	reportBenefits(b, fd)
}

// BenchmarkFig11Handover: the §4.3 request/response handover. Reports
// the worst response delay right after the failure (the recovery
// spike) and the steady-state delay on the surviving path.
func BenchmarkFig11Handover(b *testing.B) {
	var res expdesign.HandoverResult
	for i := 0; i < b.N; i++ {
		res = expdesign.RunHandover(expdesign.DefaultHandoverConfig())
	}
	var spike, after time.Duration
	for _, s := range res.Samples {
		if s.SentAt > 3*time.Second && s.Delay > spike {
			spike = s.Delay
		}
		if s.SentAt > 6*time.Second && s.Delay > after {
			after = s.Delay
		}
	}
	b.ReportMetric(float64(spike)/1e6, "recovery_spike_ms")
	b.ReportMetric(float64(after)/1e6, "steady_after_ms")
	b.ReportMetric(boolMetric(res.ServerSawPathsFrame), "paths_frame_delivered")
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// --- ablation benchmarks: the §3 design choices ---

// ablationScenarios is a handcrafted scenario set chosen to expose the
// design choices: strongly heterogeneous paths (where scheduling and
// coupling decisions matter), a balanced pair (aggregation), and a
// lossy asymmetric pair (recovery routing).
func ablationScenarios() []expdesign.Scenario {
	mk := func(id int, p0, p1 netem.PathSpec) expdesign.Scenario {
		return expdesign.Scenario{ID: id, Class: "ablation", Paths: [2]netem.PathSpec{p0, p1}}
	}
	ms := time.Millisecond
	return []expdesign.Scenario{
		// Heterogeneous capacity and RTT: a scheduler that leans on
		// the slow path pays for it.
		mk(0, netem.PathSpec{CapacityMbps: 20, RTT: 15 * ms, QueueDelay: 50 * ms},
			netem.PathSpec{CapacityMbps: 2, RTT: 150 * ms, QueueDelay: 150 * ms}),
		// Balanced: aggregation potential 2x.
		mk(1, netem.PathSpec{CapacityMbps: 8, RTT: 30 * ms, QueueDelay: 80 * ms},
			netem.PathSpec{CapacityMbps: 8, RTT: 35 * ms, QueueDelay: 80 * ms}),
		// Lossy slow path: retransmission routing and coupling matter.
		mk(2, netem.PathSpec{CapacityMbps: 12, RTT: 25 * ms, QueueDelay: 60 * ms},
			netem.PathSpec{CapacityMbps: 3, RTT: 80 * ms, QueueDelay: 100 * ms, LossRate: 0.01}),
		// Extreme RTT asymmetry with a tight queue.
		mk(3, netem.PathSpec{CapacityMbps: 10, RTT: 10 * ms, QueueDelay: 30 * ms},
			netem.PathSpec{CapacityMbps: 5, RTT: 250 * ms, QueueDelay: 60 * ms}),
	}
}

func runVariant(b *testing.B, cfg core.Config) (meanElapsed float64, completed int) {
	b.Helper()
	var el []float64
	for _, sc := range ablationScenarios() {
		res := expdesign.RunMPQUICVariant(sc, cfg, 4<<20, 0, 11)
		if res.Completed {
			completed++
		}
		el = append(el, res.Elapsed.Seconds())
	}
	return stats.Mean(el), completed
}

// BenchmarkAblationScheduler compares the paper's lowest-RTT scheduler
// against round-robin (§3 argues round-robin is fragile with
// heterogeneous paths).
func BenchmarkAblationScheduler(b *testing.B) {
	var lr, rr float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		lr, _ = runVariant(b, cfg)
		cfg.Scheduler = core.SchedRoundRobin
		rr, _ = runVariant(b, cfg)
	}
	b.ReportMetric(lr, "lowest_rtt_mean_s")
	b.ReportMetric(rr, "round_robin_mean_s")
}

// BenchmarkAblationDuplication toggles the duplicate-on-fresh-path
// phase of the scheduler (§3: duplication trades some overhead for
// immediate use of new paths without head-of-line risk).
func BenchmarkAblationDuplication(b *testing.B) {
	var withDup, noDup float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		withDup, _ = runVariant(b, cfg)
		cfg.Scheduler = core.SchedLowestRTTNoDup
		noDup, _ = runVariant(b, cfg)
	}
	b.ReportMetric(withDup, "duplication_mean_s")
	b.ReportMetric(noDup, "no_duplication_mean_s")
}

// BenchmarkAblationCongestionControl compares coupled OLIA against
// running decoupled CUBIC on every path (§3: decoupled CUBIC on a
// multipath connection is unfair; OLIA is the paper's choice).
func BenchmarkAblationCongestionControl(b *testing.B) {
	var olia, cubic float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		olia, _ = runVariant(b, cfg)
		cfg.CC = core.CCCubic
		cubic, _ = runVariant(b, cfg)
	}
	b.ReportMetric(olia, "olia_mean_s")
	b.ReportMetric(cubic, "decoupled_cubic_mean_s")
}

// BenchmarkAblationWindowUpdateBroadcast toggles sending WINDOW_UPDATE
// frames on all paths (§3: broadcast avoids receive-buffer blocking).
func BenchmarkAblationWindowUpdateBroadcast(b *testing.B) {
	var bcast, single float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		bcast, _ = runVariant(b, cfg)
		cfg.WindowUpdateAllPaths = false
		single, _ = runVariant(b, cfg)
	}
	b.ReportMetric(bcast, "wu_all_paths_mean_s")
	b.ReportMetric(single, "wu_single_path_mean_s")
}

// BenchmarkAblationBLEST compares the paper's lowest-RTT scheduler
// against the BLEST-inspired blocking-estimation scheduler (extension;
// BLEST is cited as related work [16]) on a window-constrained,
// heterogeneous scenario where blocking estimation should help.
func BenchmarkAblationBLEST(b *testing.B) {
	var lowest, blest float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.ConnWindow = 512 << 10
		cfg.StreamWindow = 512 << 10
		lowest, _ = runVariant(b, cfg)
		cfg.Scheduler = core.SchedBLEST
		blest, _ = runVariant(b, cfg)
	}
	b.ReportMetric(lowest, "lowest_rtt_mean_s")
	b.ReportMetric(blest, "blest_mean_s")
}

// BenchmarkAblationLIAvsOLIA compares the two coupled congestion
// controllers (the comparison §3 leaves to further study).
func BenchmarkAblationLIAvsOLIA(b *testing.B) {
	var olia, lia float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		olia, _ = runVariant(b, cfg)
		cfg.CC = core.CCLia
		lia, _ = runVariant(b, cfg)
	}
	b.ReportMetric(olia, "olia_mean_s")
	b.ReportMetric(lia, "lia_mean_s")
}

// BenchmarkAblationTailReinjection measures the completion-tail
// extension on the blackholed-path scenario its test pins down.
func BenchmarkAblationTailReinjection(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.TailReinjection = true
		with, _ = runVariant(b, cfg)
		cfg.TailReinjection = false
		without, _ = runVariant(b, cfg)
	}
	b.ReportMetric(with, "tail_reinjection_mean_s")
	b.ReportMetric(without, "no_reinjection_mean_s")
}

// BenchmarkStructVsWireNullSealer is the measurement behind the
// decision to keep struct mode (DESIGN.md, "Substitutions"): the same
// MPQUIC downloads — eight scenarios of a class, 4 MiB each — with
// packets handed over as structs and with every packet encoded and
// decoded, AEAD off in both so only the codec differs. Compare the
// ns/op and allocs/op of the struct and wire sub-benchmarks of a class:
//
//	go test -run '^$' -bench StructVsWireNullSealer -benchmem -count 3 .
func BenchmarkStructVsWireNullSealer(b *testing.B) {
	for _, class := range []expdesign.Class{expdesign.LowBDPNoLoss, expdesign.HighBDPLosses} {
		scenarios := expdesign.GenerateScenarios(class, 8)
		for _, wire := range []bool{false, true} {
			mode := "struct"
			if wire {
				mode = "wire"
			}
			b.Run(class.Name+"/"+mode, func(b *testing.B) {
				b.ReportAllocs()
				cfg := core.DefaultConfig()
				cfg.EnableCrypto = false
				cfg.WireSerialization = wire
				for i := 0; i < b.N; i++ {
					for _, sc := range scenarios {
						if res := expdesign.RunMPQUICVariant(sc, cfg, 4<<20, 0, 11); !res.Completed {
							b.Fatalf("%s did not complete", sc)
						}
					}
				}
			})
		}
	}
}

// BenchmarkAblationZeroRTT quantifies the 0-RTT resumption extension
// on Fig. 9's short-transfer workload, where §4.2 shows handshake
// latency dominates.
func BenchmarkAblationZeroRTT(b *testing.B) {
	run := func(zeroRTT bool) float64 {
		var el []float64
		for _, sc := range ablationScenarios() {
			cfg := core.DefaultConfig()
			cfg.ZeroRTT = zeroRTT
			res := expdesign.RunMPQUICVariant(sc, cfg, expdesign.ShortTransfer, 0, 13)
			el = append(el, res.Elapsed.Seconds())
		}
		return stats.Median(el)
	}
	var zero, one float64
	for i := 0; i < b.N; i++ {
		zero = run(true)
		one = run(false)
	}
	b.ReportMetric(zero*1000, "zero_rtt_median_ms")
	b.ReportMetric(one*1000, "one_rtt_median_ms")
}

// BenchmarkAblationPathsFrame measures the §4.3 handover recovery
// spike with and without the PATHS-frame failure signal.
func BenchmarkAblationPathsFrame(b *testing.B) {
	spikeOf := func(paths bool) float64 {
		hc := expdesign.DefaultHandoverConfig()
		hc.PathsFrameOnFailure = paths
		res := expdesign.RunHandover(hc)
		var spike time.Duration
		for _, s := range res.Samples {
			if s.SentAt > 3*time.Second && s.Delay > spike {
				spike = s.Delay
			}
		}
		return float64(spike) / 1e6
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = spikeOf(true)
		without = spikeOf(false)
	}
	b.ReportMetric(with, "spike_with_paths_ms")
	b.ReportMetric(without, "spike_without_paths_ms")
}
