// Command mpq-bench regenerates every table and figure of the paper's
// evaluation (§4): the Table 1 experimental design, the time-ratio
// CDFs of Figs. 3, 5, 8 and 9, the experimental-aggregation-benefit
// boxes of Figs. 4, 6, 7 and 10, and the Fig. 11 handover series.
//
// The default settings subsample the grids for quick runs; pass -full
// for the paper's 253 scenarios × 3 repetitions per class (hours of
// CPU time on a small machine).
//
// With -artifacts the grids become interruptible batch jobs: every
// completed scenario is appended to a per-grid JSONL file, and a
// re-run skips scenarios already on disk. -shard i/N runs only the
// i-th of N deterministic grid slices (each writing its own shard
// file), so one grid can be split across processes or machines;
// -from-artifacts renders the reports from the persisted (possibly
// merged) shard files without running anything.
//
// Beyond the paper, -exp dynamics (or dyn-bursty / dyn-osc /
// dyn-flaky individually) runs the scripted time-varying-link grids of
// internal/netem/dynamics: Gilbert–Elliott bursty loss, oscillating
// bandwidth (WiFi fading), and periodically flaky paths. They use the
// same checkpoint/shard machinery as the paper grids.
//
// Observability (see OBSERVABILITY.md): -sample records per-path
// cwnd/RTT time series into the artifacts and prints one paper-style
// evolution figure per grid; -flight-recorder arms a bounded
// post-mortem ring on every run and dumps it into the given directory
// when a run times out, aborts, or suffers an RTO storm — healthy runs
// write nothing.
//
// Usage:
//
//	mpq-bench                            # every paper experiment, subsampled
//	mpq-bench -exp fig3                  # one experiment
//	mpq-bench -full -exp fig4            # paper-scale grid for one figure
//	mpq-bench -cdf -exp fig5             # also dump raw CDF series for plotting
//	mpq-bench -exp dynamics              # the three dynamic grids
//	mpq-bench -exp dyn-bursty -artifacts out    # one dynamic grid, checkpointed
//	mpq-bench -full -artifacts out       # checkpointed: ^C and re-run to resume
//	mpq-bench -full -artifacts out -shard 1/4   # second quarter of each grid
//	mpq-bench -artifacts out -from-artifacts    # reports from persisted shards
//
// Three subcommands run single points of the same bodies (sub.go):
//
//	mpq-bench run -proto mpquic -size 20 -cap1 5 -rtt1 60ms -loss1 0.01
//	mpq-bench trace -size 1 -qlog > transfer.qlog
//	mpq-bench handover -mode flap -period 2s -outage 500ms
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mpquic/internal/expdesign"
	"mpquic/internal/perf"
)

// parseShard parses "i/N" into (i, N); "" means the whole grid.
func parseShard(s string) (int, int, error) {
	if s == "" {
		return 0, 1, nil
	}
	var i, n int
	if _, err := fmt.Sscanf(s, "%d/%d", &i, &n); err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q: want i/N, e.g. 0/4", s)
	}
	if n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("bad -shard %q: need 0 <= i < N", s)
	}
	return i, n, nil
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// A command declares its flags on fs and returns what to run once they
// are parsed; that returns the exit status.
type command func(fs *flag.FlagSet, stdout, stderr io.Writer) func() int

// cli runs one invocation and returns its exit status: 0 done, 1 the
// run failed, 2 misuse. A first argument that is not a flag names a
// subcommand; without one the arguments are the grids'.
func cli(args []string, stdout, stderr io.Writer) int {
	cmd, name := command(grids), "mpq-bench"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, ok := subcommands[args[0]]
		if !ok {
			fmt.Fprintf(stderr, "unknown subcommand %q (want run, trace or handover)\n", args[0])
			return 2
		}
		cmd, name, args = sub, name+" "+args[0], args[1:]
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	run := cmd(fs, stdout, stderr)
	switch fs.Parse(args) {
	case nil:
		return run()
	case flag.ErrHelp:
		return 0
	}
	return 2
}

// grids regenerates the paper's tables and figures.
func grids(fs *flag.FlagSet, stdout, stderr io.Writer) func() int {
	var (
		exp       = fs.String("exp", "all", "experiment: all, table1, fig3..fig11, dynamics, dyn-bursty, dyn-osc, dyn-flaky")
		scenarios = fs.Int("scenarios", 40, "scenarios per class (paper: 253)")
		reps      = fs.Int("reps", 1, "repetitions per point, median taken (paper: 3)")
		workers   = fs.Int("workers", 0, "parallel simulations (default GOMAXPROCS)")
		full      = fs.Bool("full", false, "paper-scale: 253 scenarios, 3 repetitions")
		dumpCDF   = fs.Bool("cdf", false, "dump raw CDF series for the ratio figures")
		progress  = fs.Bool("progress", true, "print progress with ETA to stderr")
		artifacts = fs.String("artifacts", "", "directory for grid JSONL artifacts (enables checkpoint/resume)")
		shard     = fs.String("shard", "", "run only shard i of N of each grid, as i/N (e.g. 0/4)")
		fromArt   = fs.Bool("from-artifacts", false, "render reports from persisted artifacts instead of running (requires -artifacts)")
		flightDir = fs.String("flight-recorder", "", "directory for anomaly post-mortems: arms a bounded flight recorder per run, dumped on timeout/abort/RTO storm")
		sampleIvl = fs.Duration("sample", 0, "per-path time-series sampling interval (0 = off); samples land in artifacts and one evolution figure per grid is printed")
	)
	return func() int {
		if *full {
			*scenarios = expdesign.PaperScenarioCount
			*reps = expdesign.Repetitions
		}
		fail := func(err error) int {
			fmt.Fprintln(stderr, err)
			return 1
		}
		shardIdx, numShards, err := parseShard(*shard)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if *fromArt && *artifacts == "" {
			fmt.Fprintln(stderr, "-from-artifacts requires -artifacts")
			return 2
		}
		if *artifacts != "" && !*fromArt {
			if err := os.MkdirAll(*artifacts, 0o755); err != nil {
				return fail(err)
			}
		}
		if *flightDir != "" {
			if err := os.MkdirAll(*flightDir, 0o755); err != nil {
				return fail(err)
			}
		}

		run := func(name string) bool { return *exp == "all" || *exp == name }

		// loadGrid merges every persisted shard of a (class, size) grid.
		loadGrid := func(class expdesign.Class, size uint64) (expdesign.FigureData, error) {
			base := expdesign.ArtifactFileName(class, size, 0, 1)
			pattern := strings.TrimSuffix(base, ".jsonl") + "*.jsonl"
			paths, err := filepath.Glob(filepath.Join(*artifacts, pattern))
			if err == nil && len(paths) == 0 {
				err = fmt.Errorf("no artifacts match %s in %s", pattern, *artifacts)
			}
			var fd expdesign.FigureData
			if err == nil {
				fd, err = expdesign.LoadFigureData(paths...)
			}
			if err == nil && *progress {
				fmt.Fprintf(stderr, "  (%s: %d scenarios from %d artifact file(s))\n",
					class.Name, len(fd.Results), len(paths))
			}
			return fd, err
		}

		grid := func(class expdesign.Class, size uint64) (expdesign.FigureData, error) {
			if *fromArt {
				return loadGrid(class, size)
			}
			watch := perf.NewStopwatch()
			resumed := 0
			first := true
			prog := func(done, total int) {
				if !*progress {
					return
				}
				// The first callback of a resumed grid reports the restored
				// count in one jump; exclude it from the rate estimate.
				if first {
					first = false
					if done > 1 {
						resumed = done
					}
				}
				line := fmt.Sprintf("\r  %d/%d scenarios", done, total)
				if computed := done - resumed; computed > 0 && done < total {
					line += fmt.Sprintf("  ETA %v   ", watch.ETA(computed, total-done).Round(time.Second))
				}
				fmt.Fprint(stderr, line)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
			cfg := expdesign.GridConfig{
				Class:          class,
				Scenarios:      *scenarios,
				Size:           size,
				Reps:           *reps,
				Workers:        *workers,
				Shard:          shardIdx,
				NumShards:      numShards,
				Progress:       prog,
				SampleInterval: *sampleIvl,
				FlightDir:      *flightDir,
			}
			if *artifacts != "" {
				cfg.ArtifactPath = filepath.Join(*artifacts,
					expdesign.ArtifactFileName(class, size, shardIdx, numShards))
			}
			fd, err := expdesign.RunGrid(cfg)
			if err != nil {
				return fd, err
			}
			if *progress {
				fmt.Fprintf(stderr, "  (%s grid took %v)\n", class.Name, watch.Elapsed().Round(time.Second))
			}
			if *sampleIvl > 0 {
				// One paper-style evolution figure per grid: the first
				// scenario's MPQUIC run, sampled at the requested cadence.
				for _, sr := range fd.Results {
					m := sr.Runs[expdesign.ProtoMPQUIC][0].Metrics
					if len(m.Series) > 0 {
						fmt.Fprintln(stdout, expdesign.ReportRunSeries(m,
							fmt.Sprintf("%s scenario %d MPQUIC", class.Name, sr.Scenario.ID)))
						break
					}
				}
			}
			return fd, nil
		}
		dump := func(fd expdesign.FigureData) {
			if !*dumpCDF {
				return
			}
			single, multi := fd.TimeRatios()
			fmt.Fprintln(stdout, "# CDF series: Time TCP/QUIC")
			fmt.Fprint(stdout, expdesign.CDFSeries(single))
			fmt.Fprintln(stdout, "# CDF series: Time MPTCP/MPQUIC")
			fmt.Fprint(stdout, expdesign.CDFSeries(multi))
		}

		if run("table1") {
			fmt.Fprintln(stdout, expdesign.ReportTable1(*scenarios))
		}

		// Figures 3-8: 20 MB downloads across the four classes. One grid
		// per class serves both its CDF figure and its benefit figure.
		type figPair struct {
			class    expdesign.Class
			cdfName  string
			cdfTitle string
			aggName  string
			aggTitle string
		}
		pairs := []figPair{
			{expdesign.LowBDPNoLoss, "fig3", "Figure 3", "fig4", "Figure 4"},
			{expdesign.LowBDPLosses, "fig5", "Figure 5", "fig6", "Figure 6"},
			{expdesign.HighBDPNoLoss, "", "", "fig7", "Figure 7"},
			{expdesign.HighBDPLosses, "fig8", "Figure 8", "", ""},
		}
		for _, p := range pairs {
			wantCDF := p.cdfName != "" && run(p.cdfName)
			wantAgg := p.aggName != "" && run(p.aggName)
			if !wantCDF && !wantAgg {
				continue
			}
			fd, err := grid(p.class, expdesign.LargeTransfer)
			if err != nil {
				return fail(err)
			}
			if wantCDF {
				fmt.Fprintln(stdout, expdesign.ReportTimeRatioCDF(fd, p.cdfTitle))
				dump(fd)
			}
			if wantAgg {
				fmt.Fprintln(stdout, expdesign.ReportAggBenefit(fd, p.aggTitle))
			}
		}

		// Figures 9-10: 256 KB short transfers, low-BDP-no-loss.
		if run("fig9") || run("fig10") {
			fd, err := grid(expdesign.LowBDPNoLoss, expdesign.ShortTransfer)
			if err != nil {
				return fail(err)
			}
			if run("fig9") {
				fmt.Fprintln(stdout, expdesign.ReportTimeRatioCDF(fd, "Figure 9"))
				dump(fd)
			}
			if run("fig10") {
				fmt.Fprintln(stdout, expdesign.ReportAggBenefit(fd, "Figure 10"))
			}
		}

		// Figure 11: network handover.
		if run("fig11") {
			reportHandover(stdout, expdesign.DefaultHandoverConfig())
		}

		// Dynamic grids (beyond the paper): scripted time-varying links.
		// Not part of -exp all; select them with -exp dynamics or by name.
		dynGrids := []struct {
			name  string
			class expdesign.Class
			title string
		}{
			{"dyn-bursty", expdesign.BurstyLossGrid, "Bursty loss (Gilbert–Elliott), 20 MB, low-BDP"},
			{"dyn-osc", expdesign.OscillatingGrid, "Oscillating bandwidth (WiFi fading), 20 MB, low-BDP"},
			{"dyn-flaky", expdesign.FlakyPathGrid, "Flaky path (periodic outages), 20 MB, low-BDP"},
		}
		known := map[string]bool{"all": true, "table1": true, "dynamics": true}
		for i := 3; i <= 11; i++ {
			known[fmt.Sprintf("fig%d", i)] = true
		}
		for _, g := range dynGrids {
			known[g.name] = true
			if *exp != "dynamics" && *exp != g.name {
				continue
			}
			fd, err := grid(g.class, expdesign.LargeTransfer)
			if err != nil {
				return fail(err)
			}
			fmt.Fprintln(stdout, expdesign.ReportTimeRatioCDF(fd, g.title))
			dump(fd)
			fmt.Fprintln(stdout, expdesign.ReportAggBenefit(fd, g.title))
		}

		if !known[*exp] {
			fmt.Fprintf(stderr, "unknown experiment %q\n", *exp)
			return 2
		}
		return 0
	}
}
