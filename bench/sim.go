package main

import (
	"fmt"
	"reflect"
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/core"
	"mpquic/internal/expdesign"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
)

// runSeed mirrors expdesign's (unexported) per-run seed derivation,
// with the benchmark seed in the role of the repetition index: seed 0
// replays the paper grid's first repetition, seed n its n-th, over the
// same WSP-selected scenarios.
func runSeed(class expdesign.Class, scenarioID int, proto expdesign.Protocol, start int, seed uint64) uint64 {
	return class.Seed*1_000_003 + uint64(scenarioID)*8191 +
		uint64(proto)*131 + uint64(start)*17 + 1 + seed*7919
}

// jitteredSize moves the transfer size by under a kilobyte per seed, so
// distinct seeds are distinct inputs even in the loss-free classes
// (where the run seed draws nothing) at a cost difference below 0.02 %.
func jitteredSize(size, seed uint64) uint64 { return size + seed%997 }

// gridStacks are the stacks the grid workloads time. MPTCP is left
// out: mptcpsim loses the final segment of some transfers and then
// idles to the run deadline (1–7 of 48 runs per seed in the lossy
// class, one at 20 MiB in the loss-free one), and a benchmark workload
// may not contain failing operations. The traced run still times it,
// outside the timed phase, as expdesign.host_share_mptcp and
// mptcpsim.incomplete_runs.
var gridStacks = []expdesign.Protocol{expdesign.ProtoTCP, expdesign.ProtoQUIC, expdesign.ProtoMPQUIC}

// runOut is the part of a run every later cycle must reproduce.
type runOut struct {
	elapsed time.Duration
	packets uint64
}

// simWorkload covers the three simulator workloads: a unit is one
// scenario — every stack of stacks × both start paths.
type simWorkload struct {
	class     expdesign.Class
	scenarios []expdesign.Scenario
	stacks    []expdesign.Protocol
	// wire runs MPQUIC with wire serialization and AEAD on instead of
	// the struct-mode grid.
	wire bool
	size uint64
	seed uint64
	tr   *tracer

	// ref is unit 0's full results from the warm-up; verify re-runs the
	// unit and requires them bit for bit.
	ref []expdesign.RunResult
	// first holds every unit's outcomes from its first execution:
	// later cycles replay identical inputs and must match.
	first [][]runOut
}

func newSimGrid(class expdesign.Class, p params, seed uint64, tr *tracer) (*simWorkload, error) {
	return newSim(class, gridStacks, false, p, seed, tr)
}

func newSimWire(p params, seed uint64, tr *tracer) (*simWorkload, error) {
	return newSim(expdesign.LowBDPNoLoss, []expdesign.Protocol{expdesign.ProtoMPQUIC}, true, p, seed, tr)
}

func newSim(class expdesign.Class, stacks []expdesign.Protocol, wire bool, p params, seed uint64, tr *tracer) (*simWorkload, error) {
	scs := expdesign.GenerateScenarios(class, p.scenarios)
	if len(scs) == 0 {
		return nil, fmt.Errorf("no scenarios generated for %s", class.Name)
	}
	return &simWorkload{
		class:     class,
		scenarios: scs,
		stacks:    stacks,
		wire:      wire,
		size:      jitteredSize(p.simSize, seed),
		seed:      seed,
		tr:        tr,
		first:     make([][]runOut, len(scs)),
	}, nil
}

func (w *simWorkload) cycle() int { return len(w.scenarios) }

// config is the engine configuration of one stack's runs.
func (w *simWorkload) config(proto expdesign.Protocol) core.Config {
	cfg := core.DefaultSinglePathConfig()
	if proto == expdesign.ProtoMPQUIC {
		cfg = core.DefaultConfig()
	}
	if w.wire {
		cfg.WireSerialization = true
		cfg.EnableCrypto = true
	}
	return cfg
}

// runPlain executes one run through expdesign, exactly as the grids do.
func (w *simWorkload) runPlain(sc expdesign.Scenario, proto expdesign.Protocol, start int) expdesign.RunResult {
	seed := runSeed(w.class, sc.ID, proto, start, w.seed)
	if w.wire {
		return expdesign.RunMPQUICVariant(sc, w.config(proto), w.size, start, seed)
	}
	return expdesign.Run(sc, proto, w.size, start, seed)
}

func (w *simWorkload) warm() error {
	w.ref = w.ref[:0]
	for _, proto := range w.stacks {
		for start := 0; start < 2; start++ {
			r := w.runPlain(w.scenarios[0], proto, start)
			if !r.Completed {
				return fmt.Errorf("%v start %d did not complete", proto, start)
			}
			w.ref = append(w.ref, r)
		}
	}
	return nil
}

func (w *simWorkload) run(i int, traced bool) (unitResult, error) {
	sc := w.scenarios[i]
	var (
		ur   unitResult
		outs []runOut
	)
	for _, proto := range w.stacks {
		t0 := wall.Elapsed()
		for start := 0; start < 2; start++ {
			var (
				out       runOut
				completed bool
				recvd     uint64
			)
			if traced && proto != expdesign.ProtoTCP {
				out, completed, recvd = w.runTraced(sc, proto, start)
			} else {
				r := w.runPlain(sc, proto, start)
				out, completed, recvd = runOut{r.Elapsed, r.Metrics.PacketsSent}, r.Completed, r.BytesRecvd
			}
			if !completed || recvd != w.size {
				return ur, fmt.Errorf("scenario %d %v start %d: completed=%v, %d of %d bytes",
					sc.ID, proto, start, completed, recvd, w.size)
			}
			outs = append(outs, out)
			ur.payload += recvd
			ur.packets += out.packets
			if proto == expdesign.ProtoMPQUIC {
				ur.simSeconds = append(ur.simSeconds, out.elapsed.Seconds())
			}
		}
		ur.stackNs[proto] += int64(wall.Elapsed() - t0)
	}
	if w.first[i] == nil {
		w.first[i] = outs
	} else if !reflect.DeepEqual(w.first[i], outs) {
		// Also the traced-equals-untraced check: traced and untraced
		// cycles alternate over the same inputs.
		return ur, fmt.Errorf("scenario %d did not reproduce: first %v, now %v (traced=%v)", sc.ID, w.first[i], outs, traced)
	}
	return ur, nil
}

// simDeadline bounds a self-assembled run; it is expdesign's cap, which
// only a run that fails anyway can reach.
const simDeadline = 6 * time.Hour

// runTraced assembles the topology the way expdesign.RunMPQUICVariant
// does, but with the tracer's decorators between the endpoints and the
// network, so ingress/egress spans, link counters and the packet mix
// come from public seams only.
func (w *simWorkload) runTraced(sc expdesign.Scenario, proto expdesign.Protocol, start int) (runOut, bool, uint64) {
	seed := runSeed(w.class, sc.ID, proto, start, w.seed)
	cfg := w.config(proto)
	cfg.HandshakeSeed = seed
	tr := w.tr
	tr.beginTransfer(transferInfo{handshakeSeed: seed, multipath: cfg.Multipath, crypto: cfg.EnableCrypto})
	var m0 uint64
	if proto == expdesign.ProtoMPQUIC {
		m0 = mallocs()
	}

	clock := sim.NewClock()
	clock.Limit = 400_000_000
	specs := sc.Paths
	if start == 1 {
		specs = [2]netem.PathSpec{sc.Paths[1], sc.Paths[0]}
	}
	tp := netem.NewTwoPath(clock, sim.NewRand(seed), specs)
	nPaths := 1
	if cfg.Multipath {
		nPaths = 2
	}
	now := func() time.Duration { return clock.Now().Duration() }
	scfg, ccfg := cfg, cfg
	scfg.Tracer, ccfg.Tracer = &tr.server.events, &tr.client.events
	lis := core.Listen(tr.server.wrap(tp.Net, now), scfg, tp.ServerAddrs[:nPaths])
	apps.NewGetServer(lis)
	client := core.Dial(tr.client.wrap(tp.Net, now), ccfg, core.NewConnID(seed), tp.ClientAddrs[:nPaths], tp.ServerAddrs[:nPaths])
	var done *apps.GetResult
	apps.NewGetClient(client, w.size, now, func(r apps.GetResult) {
		done = &r
		clock.Stop()
	})
	err := clock.RunUntil(sim.Time(simDeadline))

	var out runOut
	tr.client.conns.observeClient(client)
	if conns := lis.Conns(); len(conns) > 0 {
		out.packets = conns[0].Stats.PacketsSent
		tr.server.conns.observeServer(conns[0])
	}
	for i := 0; i < 2; i++ {
		tr.addLinkStats(tp.Fwd[i].Stats)
		tr.addLinkStats(tp.Rev[i].Stats)
	}
	var recvd uint64
	if s := client.StreamByID(core.FirstClientStream); s != nil {
		recvd = s.BytesReceived()
	}
	if done != nil {
		out.elapsed = done.Elapsed()
		tr.client.conns.handshakeMs = append(tr.client.conns.handshakeMs, (done.HandshakeDone-done.Start).Seconds()*1e3)
	}
	if proto == expdesign.ProtoMPQUIC {
		tr.mpquicAllocs += mallocs() - m0
		tr.mpquicRuns++
	}
	tr.endTransfer(recvd)
	return out, done != nil && err == nil, recvd
}

// after re-runs scenario 0 against the warm-up reference and, on a
// traced grid run, makes the MPTCP pass.
func (w *simWorkload) after() error {
	w.mptcpPass()
	i := 0
	for _, proto := range w.stacks {
		for start := 0; start < 2; start++ {
			if r := w.runPlain(w.scenarios[0], proto, start); !reflect.DeepEqual(r, w.ref[i]) {
				return fmt.Errorf("scenario 0 %v start %d: re-run differs from the warm-up run", proto, start)
			}
			i++
		}
	}
	return nil
}

func (w *simWorkload) finish() {}

// mptcpPass runs one cycle of the stack the timed phase leaves out, for
// its host-time share and its count of runs that idle to the deadline.
func (w *simWorkload) mptcpPass() {
	if w.tr == nil || w.wire {
		return
	}
	t0 := wall.Elapsed()
	for _, sc := range w.scenarios {
		for start := 0; start < 2; start++ {
			r := expdesign.Run(sc, expdesign.ProtoMPTCP, w.size, start, runSeed(w.class, sc.ID, expdesign.ProtoMPTCP, start, w.seed))
			if !r.Completed {
				w.tr.mptcpIncomplete++
			}
		}
	}
	w.tr.mptcpNs = int64(wall.Elapsed() - t0)
}
