package expdesign

import (
	"fmt"
	"math"
	"strings"
	"time"

	"mpquic/internal/core"
	"mpquic/internal/stats"
)

// Knob is one ablation: a single change to core.DefaultConfig(). Paper
// marks one of §3's mechanisms, which stays whatever the table reads;
// an extension stays only if it moves a cell.
type Knob struct {
	Name  string
	Paper bool
	Set   func(*core.Config)
}

// Knobs are the configuration changes RunAblations judges.
var Knobs = []Knob{
	{"no-duplication", true, func(c *core.Config) { c.Scheduler = core.SchedLowestRTTNoDup }},
	{"decoupled-cubic", true, func(c *core.Config) { c.CC = core.CCCubic }},
	{"window-update-one-path", true, func(c *core.Config) { c.WindowUpdateAllPaths = false }},
	{"round-robin", false, func(c *core.Config) { c.Scheduler = core.SchedRoundRobin }},
	{"reno", false, func(c *core.Config) { c.CC = core.CCReno }},
	{"lia", false, func(c *core.Config) { c.CC = core.CCLia }},
}

// The verdict rule: a knob moves a cell when the median ratio is at
// least movesBy away from 1 and the sign test reads below movesP.
const movesBy, movesP = 0.01, 0.01

// AblationCell is one knob × class × size cell. Pairs holds, per
// scenario and then per start path, the median elapsed time of the
// default configuration and of the knob's, both over the seeds the grid
// gives its MPQUIC runs (runSeed, then RunMedian's rep stride), so the
// default side is the grid's own MPQUIC run.
type AblationCell struct {
	Knob  Knob
	Class string
	Size  uint64
	Pairs [][2]time.Duration // {default, knob}
}

// RunAblations runs every knob against the default over the four
// classes of §4.1 at both paper sizes, scenarios per class, from both
// start paths, each side the median of reps runs. Cells come knob by
// knob, then class, then size. progress, when non-nil, is called as
// each class, size and scenario finishes, one call at a time.
func RunAblations(knobs []Knob, scenarios, reps, workers int, progress func(done, total int)) []AblationCell {
	classes, sizes := []Class{LowBDPNoLoss, LowBDPLosses, HighBDPNoLoss, HighBDPLosses}, []uint64{LargeTransfer, ShortTransfer}
	var designs [][]Scenario
	for _, class := range classes {
		designs = append(designs, GenerateScenarios(class, scenarios))
	}
	var cells []AblationCell
	for _, knob := range knobs {
		for _, class := range classes {
			for _, size := range sizes {
				cells = append(cells, AblationCell{knob, class.Name, size, make([][2]time.Duration, 2*scenarios)})
			}
		}
	}
	per, done := len(classes)*len(sizes), 0 // per knob, a cell per class and size
	parallel(per*scenarios, workers, func(j int) {
		cell, s := j/scenarios, j%scenarios
		class, sc, size := classes[cell/len(sizes)], designs[cell/len(sizes)][s], sizes[cell%len(sizes)]
		for start := 0; start < 2; start++ {
			seed := runSeed(class, sc.ID, ProtoMPQUIC, start)
			elapsed := func(cfg core.Config) time.Duration {
				return medianOf(reps, func(rep int) RunResult {
					return RunMPQUICVariant(sc, cfg, size, start, seed+uint64(rep)*7919)
				}).Elapsed
			}
			def := elapsed(core.DefaultConfig())
			for k, knob := range knobs {
				cfg := core.DefaultConfig()
				knob.Set(&cfg)
				cells[k*per+cell].Pairs[2*s+start] = [2]time.Duration{def, elapsed(cfg)}
			}
		}
	}, func(int) {
		if done++; progress != nil {
			progress(done, per*scenarios)
		}
	})
	return cells
}

// ReportAblations renders one row per cell of RunAblations(knobs, …),
// then each knob's verdict: a paper mechanism stays; an extension stays
// when it moves a cell and goes when it moves none.
func ReportAblations(knobs []Knob, cells []AblationCell, reps int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations — knob's time / default's over seed-paired sims, each side the median of %d;\n", reps)
	fmt.Fprintf(&b, "a knob moves a cell when |median − 1| ≥ %g and sign-test p < %g\n", movesBy, movesP)
	fmt.Fprintf(&b, "  %-22s %-17s %-7s %7s %7s %7s %6s %6s %4s %9s  %s\n",
		"knob", "class", "size", "median", "p10", "p90", "faster", "slower", "tied", "p", "verdict")
	per, moved := len(cells)/len(knobs), make([]int, len(knobs))
	for i, c := range cells {
		var rs []float64
		faster, slower := 0, 0
		for _, p := range c.Pairs {
			rs = append(rs, p[1].Seconds()/p[0].Seconds())
			if p[1] < p[0] {
				faster++
			} else if p[1] > p[0] {
				slower++
			}
		}
		median, p, verdict := stats.Median(rs), stats.SignTest(faster, slower), "-"
		if math.Abs(median-1) >= movesBy && p < movesP {
			verdict = "moves"
			moved[i/per]++
		}
		fmt.Fprintf(&b, "  %-22s %-17s %-7s %7.3f %7.3f %7.3f %6d %6d %4d %9.2g  %s\n",
			c.Knob.Name, c.Class, fmtSize(c.Size), median, stats.Percentile(rs, 10), stats.Percentile(rs, 90),
			faster, slower, len(rs)-faster-slower, p, verdict)
	}
	for k, knob := range knobs {
		verdict := "goes"
		switch {
		case knob.Paper:
			verdict = "stays (paper mechanism)"
		case moved[k] > 0:
			verdict = "stays"
		}
		fmt.Fprintf(&b, "  %-22s moves %d of %d cells: %s\n", knob.Name, moved[k], per, verdict)
	}
	return b.String()
}
