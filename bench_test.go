// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, plus the PATHS-frame ablation of §4.3 (the
// other §3 knobs are judged over the grids by mpq-bench -exp
// ablations). Each benchmark runs a (subsampled) grid and reports the
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
	"runtime"
	"strconv"
	"testing"
	"time"

	"mpquic/internal/core"
	"mpquic/internal/expdesign"
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
		for _, c := range []expdesign.Class{expdesign.LowBDPNoLoss, expdesign.LowBDPLosses, expdesign.HighBDPNoLoss, expdesign.HighBDPLosses} {
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

// BenchmarkGridStacks runs the body of the sim_grid_bulk workload — 24
// low-BDP scenarios without random loss, 8 MiB from both start paths —
// once per stack, MPTCP included, and reports the heap allocations per
// data packet the servers sent. It is the grids' profile harness:
//
//	go test -run '^$' -bench GridStacks -memprofile mem.out .
func BenchmarkGridStacks(b *testing.B) {
	scenarios := expdesign.GenerateScenarios(expdesign.LowBDPNoLoss, 24)
	for _, proto := range []expdesign.Protocol{expdesign.ProtoTCP, expdesign.ProtoMPTCP, expdesign.ProtoQUIC, expdesign.ProtoMPQUIC} {
		b.Run(proto.String(), func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			var pkts uint64
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				for _, sc := range scenarios {
					for start := 0; start < 2; start++ {
						pkts += expdesign.Run(sc, proto, 8<<20, start, uint64(2*sc.ID+start+1)).Metrics.PacketsSent
					}
				}
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(pkts), "mallocs/pkt")
			b.ReportMetric(float64(pkts)/float64(b.N), "pkts/op")
		})
	}
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
