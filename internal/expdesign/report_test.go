package expdesign

import (
	"strings"
	"testing"
	"time"

	"mpquic/internal/apps"
)

// tinyFigureData builds a synthetic FigureData with known run values.
func tinyFigureData() FigureData {
	mk := func(elapsedS float64, goodputMbps float64) RunResult {
		return RunResult{
			Completed:  true,
			Elapsed:    time.Duration(elapsedS * float64(time.Second)),
			GoodputBps: goodputMbps * 1e6,
		}
	}
	var sr ScenarioResult
	sr.Scenario = Scenario{ID: 0, Class: "synthetic"}
	// TCP slower than QUIC; MPQUIC aggregates fully, MPTCP does not.
	sr.Runs[ProtoTCP] = [2]RunResult{mk(10, 8), mk(20, 4)}
	sr.Runs[ProtoQUIC] = [2]RunResult{mk(8, 10), mk(16, 5)}
	sr.Runs[ProtoMPTCP] = [2]RunResult{mk(9, 9), mk(9.5, 8.5)}
	sr.Runs[ProtoMPQUIC] = [2]RunResult{mk(5.4, 15), mk(5.5, 14.7)}
	return FigureData{Class: "synthetic", Size: 20 << 20, Results: []ScenarioResult{sr}}
}

func TestTimeRatiosComputation(t *testing.T) {
	fd := tinyFigureData()
	single, multi := fd.TimeRatios()
	if len(single) != 2 || len(multi) != 2 {
		t.Fatalf("lengths %d/%d", len(single), len(multi))
	}
	if single[0] != 10.0/8.0 || single[1] != 20.0/16.0 {
		t.Fatalf("single ratios %v", single)
	}
	if multi[0] < 9.0/5.4-1e-6 || multi[0] > 9.0/5.4+1e-6 {
		t.Fatalf("multi ratio %v", multi[0])
	}
}

func TestAggBenefitsSplit(t *testing.T) {
	fd := tinyFigureData()
	best, worst := fd.AggBenefits(FamilyQUIC)
	if len(best) != 1 || len(worst) != 1 {
		t.Fatalf("split %d/%d", len(best), len(worst))
	}
	// Best single path is path 0 (10 Mbps); Gm=15 → EBen = (15-10)/(15-10) = 1.
	if best[0] != 1 {
		t.Fatalf("best-first EBen %v, want 1", best[0])
	}
}

func TestReportTimeRatioCDFFormat(t *testing.T) {
	out := ReportTimeRatioCDF(tinyFigureData(), "Figure T")
	for _, want := range []string{"Figure T", "GET 20 MB", "Time TCP / QUIC", "Time MPTCP / MPQUIC", "median="} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestReportAggBenefitFormat(t *testing.T) {
	out := ReportAggBenefit(tinyFigureData(), "Figure B")
	for _, want := range []string{"Figure B", "MPTCP vs. TCP", "MPQUIC vs. QUIC", "best path first", "worst path first", "EBen>0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestReportTable1Format(t *testing.T) {
	// Fewer scenarios than the five-line excerpt shows them all.
	for n, excerpt := range map[int]string{10: "first 5 of", 3: "first 3 of"} {
		out := ReportTable1(n)
		for _, want := range []string{"Capacity [Mbps]", "0.1", "100", "2000", "2.5", excerpt, "low-BDP-losses#0"} {
			if !strings.Contains(out, want) {
				t.Fatalf("ReportTable1(%d): missing %q in:\n%s", n, want, out)
			}
		}
	}
}

func TestReportHandoverFormat(t *testing.T) {
	res := HandoverResult{
		Samples: []apps.ReqRespSample{
			{SentAt: 20 * time.Millisecond, Delay: 16 * time.Millisecond},
			{SentAt: 3220 * time.Millisecond, Delay: 226 * time.Millisecond},
		},
		ClientMarkedPF:      true,
		ServerSawPathsFrame: true,
	}
	out := ReportHandover(res, "Fig T")
	for _, want := range []string{"Fig T", "potentially-failed: true", "PATHS frame reached server: true", "226.0", "3.22"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCDFSeriesFormat(t *testing.T) {
	out := CDFSeries([]float64{2, 1})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "1.0000 0.5000") {
		t.Fatalf("first line %q", lines[0])
	}
}

func TestFmtSize(t *testing.T) {
	if fmtSize(20<<20) != "20 MB" || fmtSize(256<<10) != "256 KB" {
		t.Fatal("fmtSize")
	}
}
