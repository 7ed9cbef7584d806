package expdesign

import (
	"fmt"
	"strings"
	"time"

	"mpquic/internal/stats"
)

// ReportTimeRatioCDF renders the Fig. 3/5/8/9-style summary: the CDFs
// of Time(TCP)/Time(QUIC) and Time(MPTCP)/Time(MPQUIC). Ratio > 1
// means the QUIC-family protocol was faster.
func ReportTimeRatioCDF(fd FigureData, title string) string {
	single, multi := fd.TimeRatios()
	var b strings.Builder
	fmt.Fprintf(&b, "%s — GET %s, %d sims, %s\n", title, fmtSize(fd.Size), len(single), fd.Class)
	writeRatioRow := func(name string, xs []float64) {
		fmt.Fprintf(&b, "  %-22s n=%-4d  faster-in=%5.1f%%  p10=%5.2f  p25=%5.2f  median=%5.2f  p75=%5.2f  p90=%5.2f\n",
			name, len(xs),
			100*stats.FractionAbove(xs, 1),
			stats.Percentile(xs, 10), stats.Percentile(xs, 25), stats.Median(xs),
			stats.Percentile(xs, 75), stats.Percentile(xs, 90))
	}
	writeRatioRow("Time TCP / QUIC", single)
	writeRatioRow("Time MPTCP / MPQUIC", multi)
	b.WriteString(stats.AsciiCDF(map[string][]float64{
		"Time TCP / QUIC":     single,
		"Time MPTCP / MPQUIC": multi,
	}, 0.1, 10, 60, 12))
	return b.String()
}

// CDFSeries dumps the two empirical CDFs as x,p rows (one series per
// call), for plotting the figures exactly.
func CDFSeries(xs []float64) string {
	var b strings.Builder
	for _, pt := range stats.CDF(xs) {
		fmt.Fprintf(&b, "%.4f %.4f\n", pt.X, pt.P)
	}
	return b.String()
}

// ReportAggBenefit renders the Fig. 4/6/7/10-style summary: boxplot
// five-number summaries of the experimental aggregation benefit for
// both families, split by initial path.
func ReportAggBenefit(fd FigureData, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — GET %s, %d scenarios, %s\n", title, fmtSize(fd.Size), len(fd.Results), fd.Class)
	boxes := make(map[string]stats.Box)
	for _, fam := range []Family{FamilyTCP, FamilyQUIC} {
		best, worst := fd.AggBenefits(fam)
		frac, _ := fd.BenefitSummary(fam)
		fmt.Fprintf(&b, "  %-16s EBen>0 in %.0f%% of sims\n", fam.String()+":", 100*frac)
		for _, half := range []struct {
			name string
			xs   []float64
		}{{"best path first", best}, {"worst path first", worst}} {
			box := stats.BoxOf(half.xs)
			fmt.Fprintf(&b, "    %-17s min=%6.2f q1=%6.2f med=%6.2f q3=%6.2f max=%6.2f mean=%6.2f (n=%d)\n",
				half.name, box.Min, box.Q1, box.Median, box.Q3, box.Max, box.Mean, box.N)
			short := "MPTCP"
			if fam == FamilyQUIC {
				short = "MPQUIC"
			}
			boxes[short+" "+half.name] = box
		}
	}
	b.WriteString(stats.AsciiBox(boxes, -1.5, 1.5, 60))
	return b.String()
}

// ReportTable1 renders the experimental-design ranges and a design
// excerpt, regenerating the paper's Table 1 plus the WSP selection.
func ReportTable1(scenariosPerClass int) string {
	var b strings.Builder
	b.WriteString("Table 1: experimental design parameters (WSP selection)\n")
	b.WriteString("                        Low-BDP            High-BDP\n")
	b.WriteString("  Factor                Min.     Max.      Min.     Max.\n")
	fmt.Fprintf(&b, "  Capacity [Mbps]       %-8.1f %-9.0f %-8.1f %-8.0f\n",
		LowBDPRanges.CapacityMinMbps, LowBDPRanges.CapacityMaxMbps,
		HighBDPRanges.CapacityMinMbps, HighBDPRanges.CapacityMaxMbps)
	fmt.Fprintf(&b, "  Round-Trip-Time [ms]  %-8d %-9d %-8d %-8d\n",
		0, LowBDPRanges.RTTMax/time.Millisecond, 0, HighBDPRanges.RTTMax/time.Millisecond)
	fmt.Fprintf(&b, "  Queuing Delay [ms]    %-8d %-9d %-8d %-8d\n",
		0, LowBDPRanges.QueueDelayMax/time.Millisecond, 0, HighBDPRanges.QueueDelayMax/time.Millisecond)
	fmt.Fprintf(&b, "  Random Loss [%%]       %-8d %-9.1f %-8d %-8.1f\n",
		0, LowBDPRanges.LossMax*100, 0, HighBDPRanges.LossMax*100)
	excerpt := GenerateScenarios(LowBDPLosses, scenariosPerClass)
	excerpt = excerpt[:min(5, len(excerpt))]
	fmt.Fprintf(&b, "\n  %d scenarios per class; first %d of %s:\n", scenariosPerClass, len(excerpt), LowBDPLosses.Name)
	for _, sc := range excerpt {
		fmt.Fprintf(&b, "    %s\n", sc)
	}
	return b.String()
}

// ReportHandover renders the Fig. 11 series: one row per
// request/response exchange.
func ReportHandover(res HandoverResult, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — request/response delay over time (Fig. 11)\n", title)
	fmt.Fprintf(&b, "  client marked initial path potentially-failed: %v\n", res.ClientMarkedPF)
	fmt.Fprintf(&b, "  PATHS frame reached server: %v\n", res.ServerSawPathsFrame)
	b.WriteString("  sent_time_s  delay_ms\n")
	for _, s := range res.Samples {
		fmt.Fprintf(&b, "  %10.2f  %8.1f\n", s.SentAt.Seconds(), float64(s.Delay)/float64(time.Millisecond))
	}
	return b.String()
}

// ReportRunSeries renders a run's per-path time series — the
// paper-style congestion-window and smoothed-RTT evolution figures —
// from RunMetrics.Series (recorded when the grid ran with
// SampleInterval set). Empty series yield a one-line notice.
func ReportRunSeries(m RunMetrics, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — per-path evolution (%d samples)\n", title, len(m.Series))
	if len(m.Series) == 0 {
		b.WriteString("  no samples: run the grid with SampleInterval > 0\n")
		return b.String()
	}
	cwnd := make(map[string][]stats.Point)
	srtt := make(map[string][]stats.Point)
	for _, s := range m.Series {
		name := fmt.Sprintf("path %d", s.Path)
		t := s.T.Seconds()
		cwnd[name] = append(cwnd[name], stats.Point{X: t, Y: float64(s.Cwnd)})
		srtt[name] = append(srtt[name], stats.Point{X: t, Y: float64(s.SRTT) / float64(time.Millisecond)})
	}
	b.WriteString("  congestion window [bytes] over time [s]\n")
	b.WriteString(stats.AsciiTimeSeries(cwnd, 60, 12))
	b.WriteString("  smoothed RTT [ms] over time [s]\n")
	b.WriteString(stats.AsciiTimeSeries(srtt, 60, 12))
	return b.String()
}

func fmtSize(size uint64) string {
	switch {
	case size >= 1<<20:
		return fmt.Sprintf("%d MB", size>>20)
	default:
		return fmt.Sprintf("%d KB", size>>10)
	}
}
