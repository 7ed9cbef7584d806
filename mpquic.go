// Package mpquic is a from-scratch reproduction of "Multipath QUIC:
// Design and Evaluation" (De Coninck & Bonaventure, CoNEXT 2017).
//
// It bundles, behind one import path:
//
//   - a Multipath QUIC engine (per-path packet-number spaces, Path IDs
//     in the public header, ADD_ADDRESS/PATHS frames, lowest-RTT
//     scheduling with duplication on fresh paths, OLIA coupled
//     congestion control) — and plain QUIC as its single-path
//     configuration;
//   - TCP/TLS and Multipath TCP baseline models;
//   - a deterministic discrete-event network emulator standing in for
//     the paper's Mininet testbed;
//   - the paper's complete experimental-design harness (WSP scenario
//     selection over the Table 1 ranges, time-ratio CDFs, experimental
//     aggregation benefit, the §4.3 handover scenario).
//
// The package is a thin facade: it re-exports the building blocks from
// the internal packages so applications (see examples/) can drive
// everything through a single import.
//
// Everything runs in virtual time on a deterministic event loop: runs
// with equal seeds are bit-for-bit reproducible, including their
// traces (see OBSERVABILITY.md), and attaching any observability
// instrument never changes a run.
//
// # Quick start
//
//	net := mpquic.NewTwoPathNetwork(mpquic.TwoPathConfig{
//		Path0: mpquic.PathSpec{CapacityMbps: 10, RTT: 30 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
//		Path1: mpquic.PathSpec{CapacityMbps: 5, RTT: 60 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
//	})
//	server := net.Listen(mpquic.DefaultConfig())
//	net.ServeGet(server)
//	client := net.Dial(mpquic.DefaultConfig(), 1)
//	res, err := net.Download(client, 20<<20) // runs the virtual clock
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(res.Elapsed(), res.GoodputBps())
package mpquic

import (
	"context"
	"io"
	"sync"
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/core"
	"mpquic/internal/live"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/trace"
)

// Re-exported core types. See the internal packages for full
// documentation of each.
type (
	// Config tunes a (Multipath) QUIC endpoint.
	Config = core.Config
	// Conn is a (Multipath) QUIC connection endpoint.
	Conn = core.Conn
	// Stream is an application stream handle.
	Stream = core.Stream
	// Listener accepts connections.
	Listener = core.Listener
	// Path is one path of a multipath connection.
	Path = core.Path
	// PathSpec describes one emulated path (capacity, RTT, queueing,
	// random loss) — the Table 1 factors.
	PathSpec = netem.PathSpec
	// GetResult reports a finished download.
	GetResult = apps.GetResult
)

// DefaultConfig returns the paper's MPQUIC configuration (lowest-RTT
// scheduler with duplication, OLIA, 16 MB windows).
func DefaultConfig() Config { return core.DefaultConfig() }

// SinglePathConfig returns the plain-QUIC baseline configuration.
func SinglePathConfig() Config { return core.DefaultSinglePathConfig() }

// Scheduler kinds: the paper's, and the ablations of §3's design
// choices.
const (
	SchedLowestRTT      = core.SchedLowestRTT
	SchedLowestRTTNoDup = core.SchedLowestRTTNoDup
	SchedRoundRobin     = core.SchedRoundRobin
)

// Congestion controller kinds.
const (
	CCCubic = core.CCCubic
	CCOlia  = core.CCOlia
	CCReno  = core.CCReno
	CCLia   = core.CCLia
)

// DefaultEventLimit is the runaway guard applied when
// TwoPathConfig.EventLimit is zero: the simulation aborts with an error
// after this many events, far beyond anything a finite transfer needs.
const DefaultEventLimit = sim.DefaultEventLimit

// DefaultDownloadDeadline is the virtual-time budget Network.Download
// grants a transfer before returning ErrTimeout.
const DefaultDownloadDeadline = 24 * time.Hour

// ErrTimeout is returned by Download and DownloadWith — on either
// backend — when the transfer does not complete before its deadline
// (e.g. every path died mid-run).
var ErrTimeout = apps.ErrTimeout

// ErrClosed is returned by Serve — on either backend — when the
// fabric is closed: the clean way to stop a server. Both *Network and
// *LiveNetwork surface it, so callers match it with errors.Is
// regardless of the backend behind the Fabric.
var ErrClosed = live.ErrClosed

// AbortError is returned by Download and DownloadWith — on either
// backend — when the connection terminates before the transfer
// completes: the peer closed or aborted it, an idle timeout fired, or
// a protocol error tore it down. Err carries the connection's close
// reason; match with errors.As regardless of the backend.
type AbortError = apps.AbortError

// Fabric is the backend-independent face of a network that can run
// MPQUIC endpoints: the emulated *Network (virtual time, deterministic)
// and the real-socket *LiveNetwork (wall time, kernel-scheduled) both
// satisfy it, so experiment harnesses and applications written against
// Fabric run unchanged on either.
//
// Semantics shared by both backends:
//
//   - Listen starts a server on the backend's local addresses;
//     ServeGet attaches the paper's GET responder to it.
//   - Serve blocks until Close and then returns ErrClosed (or an I/O
//     error, live only). The emulated backend needs no Serve to make
//     progress — Download drives the virtual clock — so there Serve
//     exists for lifecycle parity: run it in a goroutine and Close to
//     release it, exactly as with a live server.
//   - Dial opens a client connection; remotes optionally overrides the
//     remote path addresses (required for live, where the peer's
//     bound ports are not knowable in advance; optional for the
//     emulated backend, which defaults to its own server addresses).
//   - Download/DownloadWith run a blocking GET and return the result
//     or one of the unified errors: ErrTimeout past the deadline,
//     *AbortError if the connection died first, ErrClosed if the
//     fabric was closed mid-transfer, or the DownloadOpts.Ctx error if
//     the caller canceled.
//   - Close releases the backend (sockets for live, the Serve latch
//     for the emulated network). Safe to call more than once.
type Fabric interface {
	Listen(cfg Config) *Listener
	ServeGet(l *Listener)
	Serve() error
	Dial(cfg Config, connID uint64, remotes ...string) *Conn
	Download(client *Conn, size uint64) (GetResult, error)
	DownloadWith(client *Conn, size uint64, opts DownloadOpts) (GetResult, error)
	Close() error
}

// Both backends satisfy Fabric; the conformance suite in
// fabric_test.go exercises the shared semantics over each.
var (
	_ Fabric = (*Network)(nil)
	_ Fabric = (*LiveNetwork)(nil)
)

// TwoPathConfig describes the Fig. 2 topology: a dual-homed client and
// server joined by two disjoint paths.
type TwoPathConfig struct {
	Path0, Path1 PathSpec
	// Seed drives every random process (loss draws). Runs with equal
	// seeds are bit-for-bit reproducible.
	Seed uint64
	// EventLimit aborts the simulation with an error after this many
	// clock events, guarding against runaway event loops. Zero means
	// DefaultEventLimit.
	EventLimit uint64
}

// gets is the half of Fabric both backends share — ServeGet, Download
// and DownloadWith, written once — over the one step that differs
// between a virtual clock and a wall-clock socket loop. Network and
// LiveNetwork embed it.
type gets struct {
	// now reads the backend's clock, the timebase of GetResult.
	now func() time.Duration
	// defaultDeadline bounds a Download whose caller set none.
	defaultDeadline time.Duration
	// drive runs the backend until done() holds or deadline has passed
	// (neither is an error), or ctx is done where the backend can
	// notice (its error). wake, called from inside a drive, makes it
	// look at done() again.
	drive func(ctx context.Context, deadline time.Duration, done func() bool) error
	wake  func()
}

// ServeGet attaches the paper's GET file server to a listener.
func (n *gets) ServeGet(l *Listener) { apps.NewGetServer(l) }

// Download runs a blocking GET of size bytes on the client connection
// under the backend's default deadline; see DownloadWith.
func (n *gets) Download(client *Conn, size uint64) (GetResult, error) {
	return n.DownloadWith(client, size, DownloadOpts{})
}

// DownloadWith arms a GET of size bytes on the client connection,
// drives the backend — the virtual clock, or the wall-clock socket
// loop on the calling goroutine — until that GET is done, and returns
// its result, timestamped in the backend's time. It returns ErrTimeout
// if opts.Deadline passes first, *AbortError if the connection died
// before completing, ErrClosed if the fabric was closed, or the
// opts.Ctx error.
func (n *gets) DownloadWith(client *Conn, size uint64, opts DownloadOpts) (GetResult, error) {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return GetResult{}, err
	}
	deadline := opts.Deadline
	if deadline <= 0 {
		deadline = n.defaultDeadline
	}
	get := apps.NewGetClient(client, size, n.now, func(GetResult) { n.wake() })
	if err := n.drive(ctx, deadline, func() bool { return get.Done() || client.Closed() }); err != nil {
		return GetResult{}, err
	}
	return get.Outcome()
}

// Network is an emulated two-path network plus its virtual clock.
type Network struct {
	gets
	clock *sim.Clock
	tp    *netem.TwoPathNet

	closeOnce sync.Once
	done      chan struct{}
}

// NewTwoPathNetwork builds the emulated Fig. 2 topology.
func NewTwoPathNetwork(cfg TwoPathConfig) *Network {
	clock := sim.NewClock()
	clock.Limit = cfg.EventLimit
	if clock.Limit == 0 {
		clock.Limit = DefaultEventLimit
	}
	tp := netem.NewTwoPath(clock, sim.NewRand(cfg.Seed), [2]netem.PathSpec{cfg.Path0, cfg.Path1})
	n := &Network{clock: clock, tp: tp, done: make(chan struct{})}
	n.gets = gets{now: n.Now, defaultDeadline: DefaultDownloadDeadline, drive: n.drive, wake: clock.Stop}
	return n
}

// drive runs the virtual clock until done() holds or deadline of
// virtual time has passed. Stop is only a wake-up here: whoever called
// it — this drive's GET, or one an earlier drive gave up on finishing
// late — the clock resumes unless done() says this drive is over. The
// run is synchronous, with nobody to preempt, so ctx is not looked at.
func (n *Network) drive(_ context.Context, deadline time.Duration, done func() bool) error {
	end := n.clock.Now().Add(deadline)
	for {
		if err := n.clock.RunUntil(end); err != nil || done() || n.clock.Now() >= end {
			return err
		}
	}
}

// Now reports the current virtual time.
func (n *Network) Now() time.Duration { return n.clock.Now().Duration() }

// RunFor advances the virtual clock by d, executing all due events.
func (n *Network) RunFor(d time.Duration) error {
	return n.drive(context.Background(), d, func() bool { return false })
}

// At schedules fn at an absolute virtual time (e.g. to kill a path
// mid-run for a handover experiment).
func (n *Network) At(t time.Duration, fn func()) { n.clock.At(sim.Time(t), fn) }

// KillPath makes path i drop every packet from now on.
func (n *Network) KillPath(i int) { n.tp.KillPath(i) }

// ServerAddr returns the server-side address of path i.
func (n *Network) ServerAddr(i int) string { return string(n.tp.ServerAddrs[i]) }

// Listen starts a (MP)QUIC server on both server addresses (or only
// the first for single-path configs).
func (n *Network) Listen(cfg Config) *Listener {
	addrs := n.tp.ServerAddrs[:]
	if !cfg.Multipath {
		addrs = addrs[:1]
	}
	return core.Listen(n.tp.Net, cfg, addrs)
}

// Dial opens a client connection over the network. With no explicit
// remotes, multipath configs get both address pairs and single-path
// configs only the first. Explicit remotes (the Fabric form; at most
// one per client address, in path order) override the defaults —
// e.g. dial only ServerAddr(0) to model a server whose second address
// is learned later via ADD_ADDRESS.
func (n *Network) Dial(cfg Config, connID uint64, remotes ...string) *Conn {
	locals, remoteAddrs := n.tp.ClientAddrs[:], n.tp.ServerAddrs[:]
	if len(remotes) > 0 {
		remoteAddrs = make([]netem.Addr, len(remotes))
		for i, r := range remotes {
			remoteAddrs[i] = netem.Addr(r)
		}
	} else if !cfg.Multipath {
		remoteAddrs = remoteAddrs[:1]
	}
	if !cfg.Multipath && len(locals) > 1 {
		locals = locals[:1]
	}
	return core.Dial(n.tp.Net, cfg, core.NewConnID(connID), locals, remoteAddrs)
}

// DialPartial opens a multipath client that initially knows only the
// server's first address; further paths open when the server
// advertises addresses via ADD_ADDRESS (the dual-stack use case).
func (n *Network) DialPartial(cfg Config, connID uint64) *Conn {
	return core.Dial(n.tp.Net, cfg, core.NewConnID(connID), n.tp.ClientAddrs[:], n.tp.ServerAddrs[:1])
}

// ServeEcho attaches the §4.3 request/response responder.
func (n *Network) ServeEcho(l *Listener) { apps.NewEchoServer(l) }

// Serve blocks until Close, then returns ErrClosed — the Fabric
// server lifecycle. The emulated network makes progress without it
// (Download drives the virtual clock from the caller's goroutine), so
// Serve only parks: run it in a goroutine, as with a live server, and
// Close to release it.
func (n *Network) Serve() error {
	<-n.done
	return ErrClosed
}

// Close releases the network: a concurrent or future Serve returns
// ErrClosed. The virtual clock and emulated links carry no OS
// resources, so there is nothing else to tear down. Safe to call more
// than once.
func (n *Network) Close() error {
	n.closeOnce.Do(func() { close(n.done) })
	return nil
}

// DownloadOpts tunes DownloadWith on either backend.
type DownloadOpts struct {
	// Deadline bounds the transfer, measured from the moment
	// DownloadWith is called — in virtual time on the emulated
	// backend (zero means DefaultDownloadDeadline), in wall time on
	// the live one (zero means DefaultLiveDeadline). Exceeding it
	// returns ErrTimeout.
	Deadline time.Duration
	// Ctx cancels the transfer: DownloadWith then returns Ctx.Err()
	// (context.Canceled or context.DeadlineExceeded). On the live
	// backend cancellation is honored mid-transfer, within one
	// wake-up of the loop. The emulated backend runs synchronously in
	// virtual time with no goroutine to preempt, so there Ctx is
	// checked only on entry (a no-op mid-run) — use Deadline or
	// Network.At to bound emulated transfers. Nil means no
	// cancellation.
	Ctx context.Context
}

// ReqRespClient drives the §4.3 request train; see apps.ReqRespClient.
type ReqRespClient = apps.ReqRespClient

// ReqRespSample is one request/response delay measurement.
type ReqRespSample = apps.ReqRespSample

// StartRequestTrain fires a 750-byte request every 400 ms for total,
// recording per-request response delays (Fig. 11's series).
func (n *Network) StartRequestTrain(client *Conn, total time.Duration) *ReqRespClient {
	return apps.NewReqRespClient(client, n.clock, total)
}

// --- Observability ---
//
// Tracing, time series and flight recording are documented in
// OBSERVABILITY.md. All instruments are pure observers of the
// simulation: attaching any of them never changes a run's schedule or
// results, and all timestamps are virtual time (never wall clocks), so
// same-seed runs produce byte-identical traces.

// Tracer consumes protocol and link events; see OBSERVABILITY.md for
// the event vocabulary.
type Tracer = trace.Tracer

// Event is one trace record.
type Event = trace.Event

// NewQlogTracer renders events as qlog-compatible JSON-SEQ on w,
// loadable in qlog tooling such as qvis. vantage names the traced
// endpoint ("client" or "server").
func NewQlogTracer(w io.Writer, vantage string) Tracer { return trace.NewQlog(w, vantage) }

// SetLinkTracer attaches t to every emulated link, so link lifecycle
// events (link_down, link_up, link_reconfigured) interleave with the
// protocol events of any connection tracing to the same tracer. Set
// Config.Tracer on the endpoints for the protocol side.
func (n *Network) SetLinkTracer(t Tracer) { n.tp.SetTracer(t) }
