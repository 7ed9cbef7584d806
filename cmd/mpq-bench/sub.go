package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"mpquic/internal/expdesign"
	"mpquic/internal/netem"
	"mpquic/internal/trace"
)

// The subcommands run one point of what the grids sweep, through the
// grids' own bodies: run and trace through expdesign's run of any of
// the four stacks, handover through RunHandover.
var subcommands = map[string]command{"run": runCmd, "trace": traceCmd, "handover": handoverCmd}

// transfer is the one download run and trace describe: a CLI scenario
// over the Table 1 factors, the stack, the size, the start path, the seed.
type transfer struct {
	sc     expdesign.Scenario
	proto  expdesign.Protocol
	sizeMB float64
	start  int
	seed   uint64
}

func transferFlags(fs *flag.FlagSet) *transfer {
	t := &transfer{sc: expdesign.Scenario{Class: "cli"}, proto: expdesign.ProtoMPQUIC}
	fs.Var(&t.proto, "proto", "protocol: tcp, quic, mptcp, mpquic")
	fs.Float64Var(&t.sizeMB, "size", 20, "transfer size in MB")
	fs.IntVar(&t.start, "start", 0, "initial path (0 or 1)")
	fs.Uint64Var(&t.seed, "seed", 1, "simulation seed")
	for i := range t.sc.Paths {
		p, n := &t.sc.Paths[i], fmt.Sprint(i)
		fs.Float64Var(&p.CapacityMbps, "cap"+n, 10, "path "+n+" capacity [Mbps]")
		fs.DurationVar(&p.RTT, "rtt"+n, 30*time.Millisecond, "path "+n+" RTT")
		fs.DurationVar(&p.QueueDelay, "queue"+n, 50*time.Millisecond, "path "+n+" max queueing delay")
		fs.Float64Var(&p.LossRate, "loss"+n, 0, "path "+n+" random loss rate [0..1]")
	}
	return t
}

func (t *transfer) size() uint64 { return uint64(t.sizeMB * (1 << 20)) }

// err names the first flag of t out of range, or is nil.
func (t *transfer) err() error {
	switch {
	case t.start != 0 && t.start != 1:
		return fmt.Errorf("-start %d: want 0 or 1", t.start)
	case !(t.sizeMB > 0):
		return fmt.Errorf("-size %v: want > 0", t.sizeMB)
	}
	for i, p := range t.sc.Paths {
		n := fmt.Sprint(i)
		if err := pathErr(p, map[string]string{"CapacityMbps": "-cap" + n, "RTT": "-rtt" + n, "QueueDelay": "-queue" + n, "LossRate": "-loss" + n}); err != nil {
			return err
		}
	}
	return nil
}

// pathErr is spec's Table 1 range violation under the name of the flag
// that set the factor (flags maps PathSpec fields to flag names), or nil.
func pathErr(spec netem.PathSpec, flags map[string]string) error {
	var fe *netem.FactorError
	if errors.As(spec.Validate(), &fe) {
		return fmt.Errorf("%s: %w", flags[fe.Factor], fe)
	}
	return nil
}

// flapErr rejects a flapping link (flap set) whose outage is not
// shorter than its period.
func flapErr(flap bool, outage, period time.Duration, outageFlag, periodFlag string) error {
	if flap && outage >= period {
		return fmt.Errorf("%s %v: want shorter than %s %v", outageFlag, outage, periodFlag, period)
	}
	return nil
}

// report prints the transfer report on w and returns the exit status:
// 1, with the received byte count, when the transfer did not complete.
func (t *transfer) report(w io.Writer, res expdesign.RunResult) int {
	fmt.Fprintf(w, "scenario: %s\nprotocol: %v (start path %d)\n", t.sc, t.proto, t.start)
	if !res.Completed {
		fmt.Fprintf(w, "DID NOT COMPLETE within %v — received %d of %d bytes (%.2f Mbps)\n",
			res.Elapsed.Round(time.Second), res.BytesRecvd, t.size(), res.GoodputBps/1e6)
		return 1
	}
	fmt.Fprintf(w, "completed in %v — goodput %.2f Mbps\n",
		res.Elapsed.Round(time.Millisecond), res.GoodputBps/1e6)
	return 0
}

// runCmd runs one download scenario and prints a transfer report.
func runCmd(fs *flag.FlagSet, stdout, stderr io.Writer) func() int {
	t := transferFlags(fs)
	reps := fs.Int("reps", 1, "repetitions (median reported)")
	return func() int {
		if err := t.err(); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		return t.report(stdout, expdesign.RunMedian(t.sc, t.proto, t.size(), t.start, *reps, t.seed, expdesign.RunOpts{}))
	}
}

// traceCmd runs the same download with one endpoint's protocol events
// and the emulator's link events streaming to stdout — text, NDJSON, or
// qlog JSON-SEQ — so a killed or flapping path explains itself in the
// trace. The transfer report goes to stderr.
func traceCmd(fs *flag.FlagSet, stdout, stderr io.Writer) func() int {
	t := transferFlags(fs)
	var (
		jsonOut = fs.Bool("json", false, "emit newline-delimited JSON instead of text")
		qlogOut = fs.Bool("qlog", false, "emit qlog-compatible JSON-SEQ instead of text")
		events  = fs.String("events", "", "comma-separated event filter (empty = all)")
		side    = fs.String("side", "server", "which endpoint to trace: client or server")
		killAt  = fs.Duration("kill-at", 0, "kill path 0 at this time (0 = never)")
		flapP   = fs.Duration("flap-period", 0, "flap path 0 with this period instead (0 = no flapping)")
		flapO   = fs.Duration("flap-outage", 300*time.Millisecond, "flap outage length (with -flap-period)")
	)
	return func() int {
		if *side != "client" && *side != "server" {
			fmt.Fprintf(stderr, "unknown -side %q (want client or server)\n", *side)
			return 2
		}
		if err := cmp.Or(t.err(), flapErr(*flapP > 0, *flapO, *flapP, "-flap-outage", "-flap-period")); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		var tracer trace.Tracer = trace.NewText(stdout)
		switch {
		case *qlogOut:
			tracer = trace.NewQlog(stdout, *side)
		case *jsonOut:
			tracer = trace.NewJSON(stdout)
		}
		if *events != "" {
			var types []trace.EventType
			for _, e := range strings.Split(*events, ",") {
				types = append(types, trace.EventType(strings.TrimSpace(e)))
			}
			tracer = trace.NewFilter(tracer, types...)
		}
		switch {
		case *flapP > 0:
			t.sc.Dynamics = &expdesign.Dynamics{Kind: expdesign.DynFlaky, Period: *flapP, Outage: *flapO}
		case *killAt > 0:
			t.sc.Dynamics = &expdesign.Dynamics{Kind: expdesign.DynKill, Start: *killAt}
		}
		opts := expdesign.RunOpts{Tracer: tracer, Side: *side}
		return t.report(stderr, expdesign.RunWithOpts(t.sc, t.proto, t.size(), t.start, t.seed, opts))
	}
}

// handoverCmd regenerates Fig. 11 — request/response traffic over
// MPQUIC with the initial path failing mid-connection — under any of
// the failure dynamics. Without flags it is `-exp fig11`.
func handoverCmd(fs *flag.FlagSet, stdout, stderr io.Writer) func() int {
	hc := expdesign.DefaultHandoverConfig()
	fs.DurationVar(&hc.InitialRTT, "rtt0", hc.InitialRTT, "initial path RTT")
	fs.DurationVar(&hc.SecondRTT, "rtt1", hc.SecondRTT, "second path RTT")
	fs.Float64Var(&hc.CapacityMbps, "cap", hc.CapacityMbps, "path capacity [Mbps]")
	fs.DurationVar(&hc.Failure.Start, "fail-at", hc.Failure.Start, "initial path failure time")
	fs.DurationVar(&hc.Duration, "duration", hc.Duration, "request train duration")
	noPaths := fs.Bool("no-paths-frame", false, "ablation: disable the PATHS frame on failure")
	fs.Uint64Var(&hc.Seed, "seed", hc.Seed, "simulation seed")
	mode := fs.String("mode", "kill", "failure dynamics: kill, flap, oscillate")
	fs.DurationVar(&hc.Failure.Period, "period", 2*time.Second, "flap/oscillation period")
	fs.DurationVar(&hc.Failure.Outage, "outage", 500*time.Millisecond, "flap outage length")
	fs.Float64Var(&hc.Failure.Depth, "depth", 0.8, "oscillation depth in (0,1)")
	return func() int {
		kinds := map[string]string{"kill": expdesign.DynKill, "flap": expdesign.DynFlaky, "oscillate": expdesign.DynOscillate}
		if hc.Failure.Kind = kinds[*mode]; hc.Failure.Kind == "" {
			fmt.Fprintf(stderr, "unknown -mode %q (want kill, flap or oscillate)\n", *mode)
			return 2
		}
		var depthErr error
		if !(hc.Failure.Depth > 0 && hc.Failure.Depth < 1) {
			depthErr = fmt.Errorf("-depth %v: want in (0, 1)", hc.Failure.Depth)
		}
		err := cmp.Or(depthErr,
			flapErr(*mode == "flap", hc.Failure.Outage, hc.Failure.Period, "-outage", "-period"),
			pathErr(netem.PathSpec{CapacityMbps: hc.CapacityMbps, RTT: hc.InitialRTT}, map[string]string{"CapacityMbps": "-cap", "RTT": "-rtt0"}),
			pathErr(netem.PathSpec{CapacityMbps: hc.CapacityMbps, RTT: hc.SecondRTT}, map[string]string{"CapacityMbps": "-cap", "RTT": "-rtt1"}))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		hc.PathsFrameOnFailure = !*noPaths
		reportHandover(stdout, hc)
		return 0
	}
}

// reportHandover runs the §4.3 scenario and prints the Fig. 11 block.
func reportHandover(w io.Writer, hc expdesign.HandoverConfig) {
	title := "Figure 11"
	if hc.Failure.Kind != expdesign.DynKill {
		title += " (" + hc.Failure.Kind + " dynamics)"
	}
	fmt.Fprintln(w, expdesign.ReportHandover(expdesign.RunHandover(hc), title))
}
