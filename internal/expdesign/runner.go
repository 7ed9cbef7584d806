package expdesign

import (
	"errors"
	"math"
	"strings"
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/core"
	"mpquic/internal/mptcpsim"
	"mpquic/internal/netem"
	"mpquic/internal/netem/dynamics"
	"mpquic/internal/sim"
	"mpquic/internal/tcpsim"
	"mpquic/internal/trace"
)

// Protocol identifies one of the four compared stacks.
type Protocol int

// The four protocols of the evaluation.
const (
	ProtoTCP Protocol = iota
	ProtoQUIC
	ProtoMPTCP
	ProtoMPQUIC
)

func (p Protocol) String() string {
	switch p {
	case ProtoTCP:
		return "TCP"
	case ProtoQUIC:
		return "QUIC"
	case ProtoMPTCP:
		return "MPTCP"
	default:
		return "MPQUIC"
	}
}

// Set parses a protocol name, in any case, making *Protocol a
// flag.Value.
func (p *Protocol) Set(name string) error {
	for q := ProtoTCP; q <= ProtoMPQUIC; q++ {
		if strings.EqualFold(q.String(), name) {
			*p = q
			return nil
		}
	}
	return errors.New("want tcp, quic, mptcp or mpquic")
}

// Multipath reports whether the protocol uses both paths.
func (p Protocol) Multipath() bool { return p == ProtoMPTCP || p == ProtoMPQUIC }

// RunResult is the outcome of one simulation run.
type RunResult struct {
	Completed  bool          `json:"completed"`
	Elapsed    time.Duration `json:"elapsed"`
	GoodputBps float64       `json:"goodput_bps"` // achieved goodput (received bytes over elapsed)
	BytesRecvd uint64        `json:"bytes_recvd"`
	// Metrics carries the protocol internals of the (median) run.
	Metrics RunMetrics `json:"metrics"`
}

// PathMetrics is the end-of-run snapshot of one path (QUIC family),
// subflow (MPTCP) or flow (TCP). The grids run GET downloads, so the
// server is the data sender: the send-side fields (bytes/packets sent,
// retransmits, final cwnd, smoothed RTT) come from the server
// endpoint, while BytesRecvd is what the client actually received over
// that path — the per-path byte split of the download.
type PathMetrics struct {
	BytesSent   uint64        `json:"bytes_sent"`
	BytesRecvd  uint64        `json:"bytes_recvd"`
	PacketsSent uint64        `json:"packets_sent"`
	Retransmits uint64        `json:"retransmits"`
	FinalCwnd   int           `json:"final_cwnd"`
	SRTT        time.Duration `json:"srtt"`
}

// RunMetrics aggregates the protocol internals of one run: the
// counters the paper uses to explain its figures (handshake latency,
// loss/retransmission activity, per-path scheduling split). Durations
// serialize as integer nanoseconds (Go time.Duration).
type RunMetrics struct {
	// Handshake is the virtual time at which the client considered the
	// secure handshake complete and could start sending requests.
	Handshake time.Duration `json:"handshake"`
	// Sender-side (server) aggregates.
	PacketsSent     uint64 `json:"packets_sent"`
	PacketsLost     uint64 `json:"packets_lost"`
	Retransmissions uint64 `json:"retransmissions"`
	RTOs            uint64 `json:"rtos"`
	// Paths holds one entry per path/subflow in creation order.
	Paths []PathMetrics `json:"paths"`
	// Series holds the run's per-path time series (cwnd, smoothed RTT,
	// bytes in flight, cumulative bytes), recorded only when sampling
	// was requested (RunOpts.SampleInterval > 0). The omitempty keeps
	// artifacts of sampling-free grids byte-identical to earlier
	// versions (the golden grid tests pin this).
	Series []trace.PathSample `json:"series,omitempty"`
}

// quicMetrics snapshots a (MP)QUIC client/server pair.
func quicMetrics(client, server *core.Conn) RunMetrics {
	m := RunMetrics{Handshake: client.Stats.HandshakeCompleted}
	if server == nil {
		return m
	}
	m.PacketsSent = server.Stats.PacketsSent
	m.PacketsLost = server.Stats.PacketsLost
	m.Retransmissions = server.Stats.Retransmissions
	m.RTOs = server.Stats.RTOs
	for _, sp := range server.Paths() {
		pm := PathMetrics{
			BytesSent:   sp.SentBytes,
			PacketsSent: sp.SentPackets,
			FinalCwnd:   sp.CC().Cwnd(),
			SRTT:        sp.RTT().SmoothedRTT(),
		}
		if cp := client.PathByID(sp.ID); cp != nil {
			pm.BytesRecvd = cp.RecvBytes
		}
		m.Paths = append(m.Paths, pm)
	}
	return m
}

// flowMetrics snapshots a TCP or MPTCP client/server pair, one
// PathMetrics entry per server flow (plain TCP has one). server is nil
// when the listener never accepted the connection.
func flowMetrics(client, server []*tcpsim.Flow) RunMetrics {
	m := RunMetrics{Handshake: client[0].Stats.EstablishedAt}
	for _, sf := range server {
		m.PacketsSent += sf.Stats.SegmentsSent
		m.PacketsLost += sf.Stats.SegmentsLost
		m.Retransmissions += sf.Stats.Retransmits
		m.RTOs += sf.Stats.RTOCount
		pm := PathMetrics{
			BytesSent:   sf.Stats.BytesSent,
			PacketsSent: sf.Stats.SegmentsSent,
			Retransmits: sf.Stats.Retransmits,
			FinalCwnd:   sf.Cwnd(),
			SRTT:        sf.RTT().SmoothedRTT(),
		}
		for _, cf := range client {
			if cf.ID == sf.ID {
				pm.BytesRecvd = cf.BytesReceived()
			}
		}
		m.Paths = append(m.Paths, pm)
	}
	return m
}

// tcpConn is what a run needs of a TCP or MPTCP connection.
type tcpConn interface {
	tcpsim.GetConn
	BytesReceived() uint64
	SampleInto(rec *trace.SeriesRecorder)
	Flows() []*tcpsim.Flow
}

// tcpGet arms a size-byte GET between client and the connection lis
// will accept for it, and returns the run's three probes: bytes the
// client received, the end-of-run metrics, and the sender-side sampler.
func tcpGet[C tcpConn](lis interface {
	OnConnection(func(C))
	Conns() []C
}, client C, size uint64, now func() time.Duration, finish func(time.Duration)) (func() uint64, func() RunMetrics, func(*trace.SeriesRecorder)) {
	tcpsim.ServeGet(lis, size)
	tcpsim.GetOverTCP(client, size, now, func(r tcpsim.GetResult) { finish(r.Elapsed()) })
	collect := func() RunMetrics {
		var server []*tcpsim.Flow
		if conns := lis.Conns(); len(conns) > 0 {
			server = conns[0].Flows()
		}
		return flowMetrics(client.Flows(), server)
	}
	sample := func(rec *trace.SeriesRecorder) {
		if conns := lis.Conns(); len(conns) > 0 {
			conns[0].SampleInto(rec)
		}
	}
	return client.BytesReceived, collect, sample
}

// effectiveRateBps estimates the rate a loss-limited reliable transfer
// can sustain on a path: the link capacity capped by the Mathis bound
// MSS/(RTT·√p) under random loss.
func effectiveRateBps(p netem.PathSpec) float64 {
	rate := p.CapacityMbps * 1e6
	if p.LossRate > 0 {
		rtt := p.RTT.Seconds() + p.QueueDelay.Seconds()/2
		if rtt < 0.01 {
			rtt = 0.01
		}
		mathis := 1378 * 8 / rtt / math.Sqrt(p.LossRate)
		if mathis < rate {
			rate = mathis
		}
	}
	return rate
}

// deadlineFor bounds a run: a generous multiple of the ideal transfer
// time at the effective rate the protocol can actually use (the start
// path for single-path protocols, the better path for multipath),
// floored for handshake-dominated short transfers.
func deadlineFor(sc Scenario, proto Protocol, size uint64, startPath int) time.Duration {
	rate := effectiveRateBps(sc.Paths[startPath])
	if proto.Multipath() {
		if other := effectiveRateBps(sc.Paths[1-startPath]); other > rate {
			rate = other
		}
	}
	ideal := time.Duration(float64(size) * 8 / rate * float64(time.Second))
	// A flaky path only carries traffic for part of each cycle; pad the
	// ideal time by the duty cycle so outages don't misclassify slow
	// but working runs as failures.
	if dyn := sc.Dynamics; dyn != nil && dyn.Kind == DynFlaky && dyn.Period > dyn.Outage {
		ideal = time.Duration(float64(ideal) * float64(dyn.Period) / float64(dyn.Period-dyn.Outage))
	}
	d := 30*ideal + 2*time.Minute
	if d > 6*time.Hour {
		d = 6 * time.Hour
	}
	return d
}

// orderedSpecs reorders the scenario's paths so the connection's
// initial path is index 0 (§4.1 varies the path used to start the
// connection).
func orderedSpecs(sc Scenario, startPath int) [2]netem.PathSpec {
	if startPath == 0 {
		return sc.Paths
	}
	return [2]netem.PathSpec{sc.Paths[1], sc.Paths[0]}
}

// applyDynamics installs the scenario's scripted behaviour on the
// freshly built topology. rng is the run's master PRNG, already past
// the topology's forks: loss-model PRNGs are forked from it in a fixed
// order, so a dynamic run is exactly as reproducible as a static one.
// Scenario path indices are remapped through the same reordering as
// orderedSpecs (startPath becomes topology path 0).
func applyDynamics(clock *sim.Clock, rng *sim.Rand, tp *netem.TwoPathNet, sc Scenario, startPath int) {
	d := sc.Dynamics
	if d == nil {
		return
	}
	topoIdx := func(p int) int {
		if startPath == 1 {
			return 1 - p
		}
		return p
	}
	if d.Kind != DynBursty {
		d.script(topoIdx(d.Path), sc.Paths[d.Path].CapacityMbps).Apply(clock, tp)
		return
	}
	// Every lossy link trades its Bernoulli process for a
	// Gilbert–Elliott chain of the same average loss rate. Forks happen
	// in scenario-path order so the draw sequences do not depend on the
	// start path.
	for p := 0; p < 2; p++ {
		spec := sc.Paths[p]
		if spec.LossRate <= 0 {
			continue
		}
		for _, l := range tp.PathLinks(topoIdx(p)) {
			l.SetLossModel(dynamics.NewGilbertElliott(
				rng.Fork(), dynamics.GEFromAverage(spec.LossRate, d.MeanBurstPkts)))
		}
	}
}

// RunOpts configures the optional observability of a run. The zero
// value disables everything, making RunWithOpts identical to Run.
//
// Determinism contract: every instrument here is a pure observer of
// the simulation — arming any of them never changes a run's schedule,
// timings or metrics. The only artifact-visible effect is the
// RunMetrics.Series field, which is omitted when sampling is off.
type RunOpts struct {
	// SampleInterval, when positive, snapshots the sender-side (server)
	// connection's per-path transport state at this simulated-time
	// cadence into RunResult.Metrics.Series. At a fixed cadence the
	// series is byte-reproducible across same-seed runs.
	SampleInterval time.Duration
	// Tracer, when non-nil, receives the run's protocol events from
	// both endpoints plus the emulator's link lifecycle events.
	Tracer trace.Tracer
	// Side, when "client" or "server", narrows the protocol events
	// Tracer and the flight recorder see to that endpoint's — what a
	// qlog file, which has one vantage point, needs. Link events still
	// flow. Empty means both endpoints.
	Side string
	// FlightEvents, when positive, arms a bounded flight recorder of
	// this capacity over the same event stream. The ring is only ever
	// dumped through FlightDump — healthy runs pay no trace I/O.
	FlightEvents int
	// RTOStorm, when positive, classifies a run with at least this many
	// sender RTOs as anomalous ("rto_storm") even if it completed.
	RTOStorm uint64
	// FlightDump receives the armed flight recorder when the run ends
	// anomalously. rep is the repetition index (0 under RunWithOpts;
	// the actual index under RunMedianOpts); anomaly is one of
	// "timeout" (deadline passed), "sim_error" (the simulator aborted)
	// or "rto_storm" (RTOStorm threshold reached).
	FlightDump func(rep int, anomaly string, rec *trace.FlightRecorder)

	// rep is the repetition index reported to FlightDump; set by
	// RunMedianOpts.
	rep int
}

// Run executes one simulation: the given protocol downloading size
// bytes over the scenario, with the connection initiated on startPath,
// seeded with seed. Single-path protocols use startPath only.
func Run(sc Scenario, proto Protocol, size uint64, startPath int, seed uint64) RunResult {
	return RunWithOpts(sc, proto, size, startPath, seed, RunOpts{})
}

// RunWithOpts is Run with observability instruments attached (see
// RunOpts). With a zero opts it is exactly Run.
func RunWithOpts(sc Scenario, proto Protocol, size uint64, startPath int, seed uint64, opts RunOpts) RunResult {
	cfg := core.DefaultSinglePathConfig()
	if proto == ProtoMPQUIC {
		cfg = core.DefaultConfig()
	}
	return run(sc, proto, cfg, size, startPath, seed, opts)
}

// RunMPQUICVariant runs one MPQUIC download with a custom engine
// configuration — the hook the ablation benchmarks use to toggle the
// §3 design choices (scheduler kind, duplication, congestion-control
// coupling, WINDOW_UPDATE broadcast). A cfg with Multipath off runs
// single-path, under the multipath deadline.
func RunMPQUICVariant(sc Scenario, cfg core.Config, size uint64, startPath int, seed uint64) RunResult {
	return run(sc, ProtoMPQUIC, cfg, size, startPath, seed, RunOpts{})
}

// run is the one run body. cfg is the engine configuration of the
// ProtoQUIC/ProtoMPQUIC case (ignored by the TCP stacks); its Tracer
// is kept unless opts arms one.
func run(sc Scenario, proto Protocol, cfg core.Config, size uint64, startPath int, seed uint64, opts RunOpts) RunResult {
	clock := sim.NewClock()
	clock.Limit = sim.DefaultEventLimit
	specs := orderedSpecs(sc, startPath)
	rng := sim.NewRand(seed)
	tp := netem.NewTwoPath(clock, rng, specs)
	applyDynamics(clock, rng, tp, sc, startPath)
	deadline := deadlineFor(sc, proto, size, startPath)

	// Arm the observers. The flight recorder rides the same tracer hook
	// as a caller-supplied tracer; both see protocol and link events.
	var fr *trace.FlightRecorder
	tracer := opts.Tracer
	if opts.FlightEvents > 0 {
		fr = trace.NewFlightRecorder(opts.FlightEvents)
		if tracer != nil {
			tracer = trace.Multi{tracer, fr}
		} else {
			tracer = fr
		}
	}
	if tracer != nil {
		tp.SetTracer(tracer)
	}
	// traceAt is the tracer endpoint end ("client" or "server") gets;
	// keep is what it gets when the run arms none there.
	traceAt := func(end string, keep trace.Tracer) trace.Tracer {
		if tracer != nil && (opts.Side == "" || opts.Side == end) {
			return tracer
		}
		return keep
	}

	var (
		done     *time.Duration
		received func() uint64
		collect  func() RunMetrics
		sample   func(rec *trace.SeriesRecorder)
	)
	now := func() time.Duration { return clock.Now().Duration() }
	finish := func(elapsed time.Duration) {
		done = &elapsed
		clock.Stop()
	}

	switch proto {
	case ProtoQUIC, ProtoMPQUIC:
		nPaths := 1
		if cfg.Multipath {
			nPaths = 2
		}
		cfg.HandshakeSeed = seed
		srvCfg, cliCfg := cfg, cfg
		srvCfg.Tracer = traceAt("server", cfg.Tracer)
		cliCfg.Tracer = traceAt("client", cfg.Tracer)
		lis := core.Listen(tp.Net, srvCfg, tp.ServerAddrs[:nPaths])
		apps.NewGetServer(lis)
		server := acceptedConn(lis)
		client := core.Dial(tp.Net, cliCfg, core.NewConnID(seed), tp.ClientAddrs[:nPaths], tp.ServerAddrs[:nPaths])
		apps.NewGetClient(client, size, now, func(r apps.GetResult) { finish(r.Elapsed()) })
		received = func() uint64 {
			if s := client.StreamByID(core.FirstClientStream); s != nil {
				return s.BytesReceived()
			}
			return 0
		}
		collect = func() RunMetrics { return quicMetrics(client, server()) }
		sample = func(rec *trace.SeriesRecorder) {
			if c := server(); c != nil {
				c.SampleInto(rec)
			}
		}
	case ProtoTCP:
		srvCfg, cliCfg := tcpsim.DefaultConfig(), tcpsim.DefaultConfig()
		srvCfg.Tracer, cliCfg.Tracer = traceAt("server", nil), traceAt("client", nil)
		lis := tcpsim.ListenTCP(tp.Net, srvCfg, tp.ServerAddrs[0])
		client := tcpsim.DialTCP(tp.Net, cliCfg, tp.ClientAddrs[0], tp.ServerAddrs[0])
		received, collect, sample = tcpGet(lis, client, size, now, finish)
	case ProtoMPTCP:
		srvCfg, cliCfg := mptcpsim.DefaultConfig(), mptcpsim.DefaultConfig()
		srvCfg.Tracer, cliCfg.Tracer = traceAt("server", nil), traceAt("client", nil)
		lis := mptcpsim.ListenMPTCP(tp.Net, srvCfg, tp.ServerAddrs[:])
		client := mptcpsim.DialMPTCP(tp.Net, cliCfg, uint32(seed)|1, tp.ClientAddrs[:], tp.ServerAddrs[:])
		received, collect, sample = tcpGet(lis, client, size, now, finish)
	}

	// The sampler is a recurring sim-clock timer polling the accepted
	// server connection (the data sender in the GET grids). It only
	// reads state, so the protocol schedule is untouched.
	var series *trace.SeriesRecorder
	if opts.SampleInterval > 0 {
		series = trace.NewSeriesRecorder()
		var st *sim.Timer
		st = sim.NewTimer(clock, func() {
			sample(series)
			st.ResetAfter(opts.SampleInterval)
		})
		st.ResetAfter(opts.SampleInterval)
	}

	err := clock.RunUntil(sim.Time(deadline))
	res := RunResult{}
	res.Metrics = collect()
	if series != nil {
		res.Metrics.Series = series.Samples
	}
	if done != nil && err == nil {
		res.Completed = true
		res.Elapsed = *done
		res.BytesRecvd = size
		res.GoodputBps = float64(size) * 8 / res.Elapsed.Seconds()
	} else {
		// Incomplete (or aborted) run: charge the deadline, credit what
		// arrived. A goodput of ~0 maps to the paper's EBen = −1 "failed
		// to transfer" notion.
		res.Elapsed = deadline
		res.BytesRecvd = received()
		res.GoodputBps = float64(res.BytesRecvd) * 8 / deadline.Seconds()
	}
	// Post-mortem: classify the run and hand the ring to the dumper.
	// Healthy runs drop the recorder without any I/O.
	if fr != nil && opts.FlightDump != nil {
		anomaly := ""
		switch {
		case err != nil:
			anomaly = "sim_error"
		case done == nil:
			anomaly = "timeout"
		case opts.RTOStorm > 0 && res.Metrics.RTOs >= opts.RTOStorm:
			anomaly = "rto_storm"
		}
		if anomaly != "" {
			opts.FlightDump(opts.rep, anomaly, fr)
		}
	}
	return res
}

// acceptedConn returns a getter for the run's server-side connection
// (nil until the listener has accepted it). A run that fails may end
// after the server idled out, and a closed connection is no longer in
// Listener.Conns — the metrics of such a run still come from it.
func acceptedConn(lis *core.Listener) func() *core.Conn {
	var server *core.Conn
	lis.OnConnection(func(c *core.Conn) {
		if server == nil {
			server = c
		}
	})
	return func() *core.Conn { return server }
}

// RunMedian runs reps seeded repetitions and returns the median-elapsed
// run (the paper analyzes the median of 3). Repetition i runs with
// seed baseSeed + i·7919: a prime stride larger than any combination
// of the per-coordinate strides in runSeed can bridge (see the seed
// derivation note in experiment.go), so repetitions never reuse
// another grid point's PRNG stream, and the same (point, rep) always
// replays the same seed regardless of the configured rep count.
func RunMedian(sc Scenario, proto Protocol, size uint64, startPath int, reps int, baseSeed uint64) RunResult {
	return RunMedianOpts(sc, proto, size, startPath, reps, baseSeed, RunOpts{})
}

// RunMedianOpts is RunMedian with observability instruments attached
// to every repetition (see RunOpts). FlightDump callbacks receive the
// actual repetition index; the returned (median) run carries its own
// repetition's Series.
func RunMedianOpts(sc Scenario, proto Protocol, size uint64, startPath int, reps int, baseSeed uint64, opts RunOpts) RunResult {
	if reps <= 0 {
		reps = 1
	}
	results := make([]RunResult, reps)
	for i := 0; i < reps; i++ {
		o := opts
		o.rep = i
		results[i] = RunWithOpts(sc, proto, size, startPath, baseSeed+uint64(i)*7919, o)
	}
	// Median by elapsed time.
	best := results[0]
	if reps > 1 {
		sorted := append([]RunResult(nil), results...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j].Elapsed < sorted[j-1].Elapsed; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		best = sorted[len(sorted)/2]
	}
	return best
}
