// Command bench is the repository benchmark: five workloads over the
// simulator and the live UDP driver, each reporting named end-to-end
// metrics (tracing off) or a per-layer cost ledger (tracing on), as
// declared in ../BENCHMARK.json. See README.md in this directory for
// why each workload and metric exists.
//
//	bash bench/run.sh --workload live_loopback_2p --seed 0 --seconds 15 --trace 0
//	bash bench/run.sh --workload sim_wire_crypto --trace 1 --trace-out spans.jsonl
//	bash bench/run.sh --compare before.jsonl after.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mpquic/internal/perf"
	"mpquic/internal/stats"
)

// wall is the process-wide stopwatch: every host-time reading in the
// harness is an offset from process start, taken through the audited
// perf package so `mpq-vet walltime` holds for this module too.
var wall = perf.NewStopwatch()

// params sizes the workloads. The defaults are the benchmark; the
// smoke test shrinks them to toy sizes.
type params struct {
	scenarios int    // grid scenarios per cycle (sim_*)
	simSize   uint64 // simulated transfer size (sim_*)
	getSize   uint64 // GET size, live_loopback_2p
	largeSize uint64 // GET size, live_large_1p
	warmSize  uint64 // live warm-up GET size
	setupReps int    // set-up repetitions; setup_s is their median
	seconds   float64
}

func defaultParams() params {
	return params{
		scenarios: 24,
		simSize:   8 << 20,
		getSize:   10 << 20,
		largeSize: 100_000_000,
		warmSize:  10 << 20,
		setupReps: 7,
		seconds:   15,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	p := defaultParams()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = fs.Uint64("seed", 0, "input seed: offsets run seeds and connection IDs and jitters transfer sizes (0 = the paper's seeds)")
		traceMode = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		out       = fs.String("out", "", "append the result as one JSON line to this file (input to -compare)")
		traceOut  = fs.String("trace-out", "", "span file written by -trace 1 (default .bench_build/trace-<workload>.jsonl)")
		compare   = fs.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
		benchJSON = fs.String("benchmark-json", "BENCHMARK.json", "benchmark declaration (bounds for -compare)")
	)
	fs.Float64Var(&p.seconds, "seconds", p.seconds, "how long the timed phase measures")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return runCompare(*benchJSON, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}

	var tr *tracer
	if *traceMode == 1 {
		tr = newTracer()
	}
	res, err := measure(*name, p, *seed, tr)
	if err != nil {
		// No result line: a set-up failure (UDP denied, bad workload)
		// must not masquerade as a measurement.
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	if tr != nil {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "trace-"+*name+".jsonl")
		}
		if err := tr.writeSpans(path); err != nil {
			fmt.Fprintf(stderr, "bench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	res.print(stdout)
	if tr == nil {
		// Not a declared metric: the high-water mark depends on where
		// collections land, and spreads by 30 % between runs on the
		// small-heap sim workloads (see README, "Memory").
		fmt.Fprintf(stdout, "%-40s %16.6g MB (informational)\n", "peak_rss_mb", peakRSSMB())
	}
	if *out != "" {
		if err := appendResult(*out, *name, *seed, *traceMode, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metricDef names one metric of the declaration in BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd lists what -trace 0 prints, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"goodput_mbps", "Mbit/s"},
	{"unit_ms_p50", "ms"},
	{"cpu_ns_per_pkt", "ns"},
	{"allocs_per_pkt", "count"},
	{"alloc_kb_per_pkt", "KiB"},
}

// perLayer lists what -trace 1 prints, in print order. A metric a
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"bench.host_slowdown", "ratio"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.unit_samples", "count"},
	{"bench.unit_ms_p90", "ms"},
	{"bench.scenarios_per_s", "1/s"},
	{"bench.sim_transfer_s_p50", "s"},
	{"bench.spans_recorded", "count"},
	{"bench.capture_pkts", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.ns_per_event_now", "ns"},
	{"netem.ns_per_transit", "ns"},
	{"netem.queue_drops", "count"},
	{"netem.random_drops", "count"},
	{"wire.encode_ns_per_pkt", "ns"},
	{"wire.decode_ns_per_pkt", "ns"},
	{"wire.encode_allocs_per_pkt", "count"},
	{"wire.decode_allocs_per_pkt", "count"},
	{"wire.overhead_ratio", "ratio"},
	{"crypto.seal_ns_per_pkt", "ns"},
	{"crypto.open_ns_per_pkt", "ns"},
	{"crypto.seal_allocs_per_pkt", "count"},
	{"crypto.open_allocs_per_pkt", "count"},
	{"crypto.handshake_us", "us"},
	{"recovery.on_sent_ns_per_pkt", "ns"},
	{"recovery.on_ack_ns_per_ack", "ns"},
	{"recovery.ack_build_ns_per_ack", "ns"},
	{"recovery.acks_per_data_pkt", "ratio"},
	{"recovery.pkts_lost", "count"},
	{"recovery.rtos", "count"},
	{"recovery.rtx_ratio", "ratio"},
	{"cc.on_ack_ns_per_pkt", "ns"},
	{"cc.final_cwnd_bytes_min", "bytes"},
	{"rtt.update_ns", "ns"},
	{"rtt.srtt_ms_max", "ms"},
	{"stream.on_frame_ns_per_pkt", "ns"},
	{"stream.on_frame_reordered_ns_per_pkt", "ns"},
	{"stream.next_frame_ns_per_pkt", "ns"},
	{"core.ingress_ns_per_pkt", "ns"},
	{"core.ingress_self_ns_per_pkt", "ns"},
	{"core.egress_pkts", "count"},
	{"core.path0_byte_share", "ratio"},
	{"core.dup_pkts", "count"},
	{"core.corrupt_drops", "count"},
	{"core.handshake_ms_p50", "ms"},
	{"live.socket_write_ns_per_pkt", "ns"},
	{"live.socket_read_wait_ns_per_pkt", "ns"},
	{"live.user_cpu_ns_per_pkt", "ns"},
	{"live.sys_cpu_ns_per_pkt", "ns"},
	{"live.loop_self_ns_per_pkt", "ns"},
	{"live.pkts_per_batch", "count"},
	{"live.max_batch", "count"},
	{"live.rcv_queue_drops", "count"},
	{"live.write_errors", "count"},
	{"expdesign.host_share_tcp", "ratio"},
	{"expdesign.host_share_mptcp", "ratio"},
	{"expdesign.host_share_quic", "ratio"},
	{"expdesign.host_share_mpquic", "ratio"},
	{"expdesign.allocs_per_run_mpquic", "count"},
	{"mptcpsim.incomplete_runs", "count"},
	{"trace.qlog_overhead_ratio", "ratio"},
	{"go.gc_cpu_fraction", "ratio"},
	{"go.gc_cycles", "count"},
	{"go.alloc_mb_per_unit", "MB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the last line of standard output carries.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	defs []metricDef
	// hostSlowdown is the run's host slowdown (see hostref.go): the
	// end-to-end time metrics above are already divided by it.
	hostSlowdown float64
}

func newResult(defs []metricDef) *result {
	return &result{Metrics: make(map[string]metric, len(defs)), defs: defs}
}

// set records one declared metric. Setting an undeclared name or the
// same name twice is a harness bug, not an input error.
func (r *result) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			if _, dup := r.Metrics[name]; dup {
				panic("bench: metric set twice: " + name)
			}
			r.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("bench: undeclared metric: " + name)
}

// fillZero gives every declared metric the workload did not exercise
// an explicit 0, so each run prints the whole declaration.
func (r *result) fillZero() {
	for _, d := range r.defs {
		if _, ok := r.Metrics[d.name]; !ok {
			r.Metrics[d.name] = metric{Unit: d.unit}
		}
	}
}

func (r *result) print(w io.Writer) {
	for _, d := range r.defs {
		m := r.Metrics[d.name]
		fmt.Fprintf(w, "%-40s %16.6g %s\n", d.name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "units attempted %d, failed %d, outputs correct: %v; host ran the reference at %.3f x its nominal time\n",
		r.Attempted, r.Failed, r.Correct, r.hostSlowdown)
}

// outLine is one line of a -out file: a result plus what produced it.
type outLine struct {
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Trace        int     `json:"trace"`
	HostSlowdown float64 `json:"host_slowdown"`
	*result
}

func appendResult(path, workload string, seed uint64, traceMode int, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(outLine{Workload: workload, Seed: seed, Trace: traceMode, HostSlowdown: res.hostSlowdown, result: res})
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	return errors.Join(err, f.Close())
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// median and quantile are stats.Median and stats.Percentile with 0, not
// NaN, for an empty sample: a metric nothing contributed to reads 0,
// and NaN has no JSON encoding.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, q*100)
}
