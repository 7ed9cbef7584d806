package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"mpquic/internal/expdesign"
)

// unitResult is what one timed unit — one grid scenario with all its
// stacks and start paths, or one live GET — hands back.
type unitResult struct {
	payload uint64 // application bytes delivered
	packets uint64 // data packets: sent by the server (sim), received by the client (live)
	// simSeconds holds the simulated MPQUIC transfer times of the unit
	// (sim workloads only).
	simSeconds []float64
	// stackNs is the host time each stack consumed (grid workloads).
	stackNs [4]int64
}

// workload is one benchmark workload after set-up. The loop is closed:
// run(i+1) starts when run(i) has returned.
type workload interface {
	// cycle is the number of distinct units; the timed phase runs whole
	// cycles so every run measures the same mix.
	cycle() int
	// warm runs one discarded unit so pools, caches and the heap are
	// filled before timing.
	warm() error
	// run executes unit i. traced selects the instrumented path (only
	// ever true when the workload was built with a tracer).
	run(i int, traced bool) (unitResult, error)
	// after runs once, when the timed phase is over: it re-checks
	// outputs and makes the passes a traced run keeps out of the timing.
	after() error
	// finish stops everything the workload started and folds what only
	// becomes readable then (server-side state) into the tracer.
	finish()
}

// builder sets a workload up from the seed. tr is nil on untraced runs.
type builder func(p params, seed uint64, tr *tracer) (workload, error)

var workloads = map[string]builder{
	"sim_grid_bulk": func(p params, s uint64, tr *tracer) (workload, error) {
		return newSimGrid(expdesign.LowBDPNoLoss, p, s, tr)
	},
	"sim_grid_lossy": func(p params, s uint64, tr *tracer) (workload, error) {
		return newSimGrid(expdesign.HighBDPLosses, p, s, tr)
	},
	"sim_wire_crypto":  func(p params, s uint64, tr *tracer) (workload, error) { return newSimWire(p, s, tr) },
	"live_loopback_2p": func(p params, s uint64, tr *tracer) (workload, error) { return newLive(2, p.getSize, p, s, tr) },
	"live_large_1p":    func(p params, s uint64, tr *tracer) (workload, error) { return newLive(1, p.largeSize, p, s, tr) },
}

// cpuTimes reads the process's user and system CPU time.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// allocStats reads the cumulative heap allocation counters: objects
// and bytes.
func allocStats() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

func mallocs() uint64 {
	n, _ := allocStats()
	return n
}

// gcSample is the runtime/metrics view of collector activity.
type gcSample struct {
	gcCPU, totalCPU float64
	cycles          uint64
	allocBytes      uint64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	var g gcSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		g.cycles = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = s[3].Value.Uint64()
	}
	return g
}

// cycleCost is one untraced cycle: what it cost, and the reference
// burst that preceded it (the next burst follows it).
type cycleCost struct {
	wall, cpu time.Duration
	burst     int
}

// phase is what the timed phase of a run accumulates.
type phase struct {
	setups     []float64 // seconds per set-up repetition
	cycles     []cycleCost
	units      int       // units per cycle
	tracedNs   []float64 // host time per traced cycle
	unitMs     []float64 // host time per untraced unit
	simSeconds []float64
	tot        unitResult // sums over the untraced units
	attempted  int
	failed     int
	mallocs    uint64
	allocBytes uint64
	gc0, gc1   gcSample

	// Traced cycles only.
	tracedPkts            uint64
	tracedUser, tracedSys time.Duration
}

// measure runs one workload: repeated set-up, a timed phase of whole
// cycles lasting at least p.seconds, output verification, and — with a
// tracer — the isolated per-layer drivers. With tr == nil the result
// carries the end-to-end metrics; otherwise the per-layer ones.
func measure(name string, p params, seed uint64, tr *tracer) (*result, error) {
	build, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload")
	}
	// One P: wall time then equals CPU time, scheduler spinning between
	// the in-process endpoints disappears, and GC cost lands in the
	// number instead of on an idle core (see README, "Why one P").
	runtime.GOMAXPROCS(1)

	host, err := newHostProbe()
	if err != nil {
		return nil, fmt.Errorf("host reference: %w", err)
	}
	var (
		w  workload
		ph phase
	)
	host.burst()
	for i := 0; i < p.setupReps; i++ {
		if w != nil {
			w.finish()
		}
		t0 := wall.Elapsed()
		if w, err = build(p, seed, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := w.warm(); err != nil {
			w.finish()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		ph.setups = append(ph.setups, (wall.Elapsed() - t0).Seconds())
	}
	host.burst() // with the one before the set-ups, this brackets them
	runtime.GC()
	ph.run(name, w, p.seconds, tr != nil, host)

	correct := ph.failed == 0
	if err := w.after(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: output check failed: %v\n", name, err)
		correct = false
	}
	w.finish()
	if ph.tot.packets == 0 {
		return nil, fmt.Errorf("no unit completed (%d attempted, %d failed)", ph.attempted, ph.failed)
	}

	var res *result
	if tr == nil {
		res = ph.endToEnd(host)
	} else {
		res = ph.perLayer(tr)
		res.set("bench.host_slowdown", host.overall())
		res.fillZero()
	}
	res.Correct, res.Attempted, res.Failed = correct, ph.attempted, ph.failed
	res.hostSlowdown = host.overall()
	return res, nil
}

// run is the timed phase: whole cycles of w until seconds have passed,
// a burst of the host reference about once a second between cycles. A
// traced run alternates untraced and traced cycles, so it gets at least
// one of each however short the budget.
func (ph *phase) run(name string, w workload, seconds float64, alternate bool, host *hostProbe) {
	ph.units = w.cycle()
	ph.gc0 = readGC()
	m0, b0 := allocStats()
	host.resetCost()
	start := wall.Elapsed()
	budget := time.Duration(seconds * float64(time.Second))
	for cyc := 0; wall.Elapsed()-start < budget || (alternate && cyc < 2); cyc++ {
		traced := alternate && cyc%2 == 1
		cu, cs := cpuTimes()
		c0 := wall.Elapsed()
		for i := 0; i < w.cycle(); i++ {
			t0 := wall.Elapsed()
			ur, err := w.run(i, traced)
			dt := wall.Elapsed() - t0
			ph.attempted++
			if err != nil {
				// A failed unit has no timing: it counts against the
				// run instead of flattering a median.
				ph.failed++
				fmt.Fprintf(os.Stderr, "bench: %s unit %d failed: %v\n", name, i, err)
				continue
			}
			if traced {
				ph.tracedPkts += ur.packets
				continue
			}
			ph.unitMs = append(ph.unitMs, dt.Seconds()*1e3)
			ph.simSeconds = append(ph.simSeconds, ur.simSeconds...)
			ph.tot.payload += ur.payload
			ph.tot.packets += ur.packets
			for k, ns := range ur.stackNs {
				ph.tot.stackNs[k] += ns
			}
		}
		cdt := wall.Elapsed() - c0
		tu, ts := cpuTimes()
		if traced {
			ph.tracedUser += tu - cu
			ph.tracedSys += ts - cs
			ph.tracedNs = append(ph.tracedNs, float64(cdt))
		} else {
			ph.cycles = append(ph.cycles, cycleCost{wall: cdt, cpu: (tu - cu) + (ts - cs), burst: len(host.bursts) - 1})
		}
		if wall.Elapsed()-host.last >= refEvery {
			host.burst()
		}
	}
	host.burst()
	m1, b1 := allocStats()
	ph.mallocs, ph.allocBytes = m1-m0, b1-b0
	ph.gc1 = readGC()
}

// endToEnd states the run's end-to-end metrics. The time-based ones are
// at nominal host speed: work done while the host ran the reference
// 20 % slower (slowdown 1.2) gets those 20 % taken off. Each cycle is
// judged by the reference bursts before and after it, the set-ups by
// the two that bracket them.
func (ph *phase) endToEnd(host *hostProbe) *result {
	var (
		wallNs, cpuNs float64
		unitMs        []float64
	)
	for _, c := range ph.cycles {
		f := host.slowdown(c.burst, c.burst+1)
		wallNs += float64(c.wall) / f
		cpuNs += float64(c.cpu) / f
		unitMs = append(unitMs, c.wall.Seconds()*1e3/float64(ph.units)/f)
	}
	res := newResult(endToEnd)
	pkts := float64(ph.tot.packets)
	res.set("setup_s", median(ph.setups)/host.slowdown(0, 1))
	res.set("goodput_mbps", float64(ph.tot.payload)*8/(wallNs/1e9)/1e6)
	res.set("unit_ms_p50", median(unitMs))
	res.set("cpu_ns_per_pkt", cpuNs/pkts)
	res.set("allocs_per_pkt", float64(ph.mallocs)/pkts)
	res.set("alloc_kb_per_pkt", float64(ph.allocBytes)/1024/pkts)
	return res
}

// perLayer states what the harness itself knows of the per-layer
// metrics and has the tracer add the rest. All raw host time.
func (ph *phase) perLayer(tr *tracer) *result {
	res := newResult(perLayer)
	plainNs := make([]float64, len(ph.cycles))
	for i, c := range ph.cycles {
		plainNs[i] = float64(c.wall)
	}
	if len(ph.tracedNs) > 0 {
		res.set("bench.trace_overhead_ratio", median(ph.tracedNs)/median(plainNs))
	}
	res.set("bench.unit_samples", float64(len(ph.unitMs)))
	res.set("bench.unit_ms_p90", quantile(ph.unitMs, 0.9))
	if len(ph.simSeconds) > 0 {
		res.set("bench.scenarios_per_s", float64(len(ph.unitMs))/(sum(plainNs)/1e9))
		res.set("bench.sim_transfer_s_p50", median(ph.simSeconds))
	}
	st := ph.tot.stackNs
	if stacks := float64(st[0] + st[1] + st[2] + st[3]); stacks > 0 {
		// MPTCP is timed by an isolated pass of one cycle (see
		// gridStacks); its share is of the four-stack total.
		mptcp := float64(tr.mptcpNs) * float64(len(plainNs))
		stacks += mptcp
		res.set("expdesign.host_share_tcp", float64(st[expdesign.ProtoTCP])/stacks)
		res.set("expdesign.host_share_quic", float64(st[expdesign.ProtoQUIC])/stacks)
		res.set("expdesign.host_share_mpquic", float64(st[expdesign.ProtoMPQUIC])/stacks)
		res.set("expdesign.host_share_mptcp", mptcp/stacks)
		res.set("mptcpsim.incomplete_runs", float64(tr.mptcpIncomplete))
	}
	if total := ph.gc1.totalCPU - ph.gc0.totalCPU; total > 0 {
		res.set("go.gc_cpu_fraction", (ph.gc1.gcCPU-ph.gc0.gcCPU)/total)
	}
	res.set("go.gc_cycles", float64(ph.gc1.cycles-ph.gc0.cycles))
	res.set("go.alloc_mb_per_unit", float64(ph.gc1.allocBytes-ph.gc0.allocBytes)/float64(ph.attempted)/1e6)
	if ph.tracedPkts > 0 {
		res.set("live.user_cpu_ns_per_pkt", float64(ph.tracedUser)/float64(ph.tracedPkts))
		res.set("live.sys_cpu_ns_per_pkt", float64(ph.tracedSys)/float64(ph.tracedPkts))
	}
	tr.report(res, ph.tracedPkts, float64(ph.tracedUser+ph.tracedSys))
	return res
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
