// Package live runs the MPQUIC stack over real UDP sockets.
//
// The protocol core (internal/core) is driver-agnostic: it schedules
// on a sim.Clock and moves datagrams through the core.DatagramSender
// boundary. The deterministic simulator implements that boundary with
// emulated links; this package implements it with one UDP socket per
// local path address and a wall clock, so the exact same protocol
// logic — scheduler, OLIA, recovery, tracing, qlog — exchanges real
// packets, unmodified (the paper ran its evaluation this way: a real
// implementation over real networks).
//
// # Sim time as a monotone image of wall time
//
// The driver owns a sim.Clock whose epoch is the moment Run starts.
// Its loop is:
//
//  1. read Clock.NextDeadline() — the earliest armed protocol timer —
//     and arm a wall timer at that deadline's wall image, quantized up
//     to the coalescing granularity (WithCoalesce, default 1 ms) so
//     nearby timers share one wake-up;
//  2. block on socket readability until that wall deadline (a select
//     over the reader channel and the timer);
//  3. on wake-up, drain every datagram the readers have queued into
//     one batch, advance the sim clock once to wall-elapsed time with
//     Clock.RunUntil (firing every due protocol timer), and inject the
//     whole batch via netem.Handler.HandleDatagram. The batch arrives
//     at one sim instant, so every datagram but the last one for each
//     distinct handler carries netem.Datagram.More: the handler consumes
//     it in full and holds its reaction (sends, timer re-arm) for the
//     one that follows. An endpoint thus answers a burst once — one ACK
//     per path per step — instead of once per datagram. Only the driver
//     sets More, only from the batch it actually drained, and every
//     handler's last datagram of a step carries More=false, whatever
//     that datagram turns out to be;
//  4. flush all egress datagrams queued during the step to their
//     sockets in one pass.
//
// Virtual time therefore advances only through RunUntil and always to
// the current wall-elapsed duration: sim time is a monotone map of
// wall time, and everything stamped with sim time (traces, qlog,
// series samples, RunMetrics) works untouched in live mode — the
// timestamps simply read as wall-derived durations since Run. Note
// that wake-up coalescing quantizes *timer-driven* work (and hence the
// wall-derived timestamps of events it causes) to the granularity;
// packet arrivals wake the loop immediately and are never delayed.
//
// # Packet buffers
//
// Every datagram, in either direction, travels in a wire.GetPacketBuf
// buffer with one owner at a time, and the driver is the only code
// here that calls wire.PutPacketBuf. Ingress: a reader draws a buffer,
// reads into it and passes it to the loop with the channel send; the
// loop recycles it as soon as HandleDatagram returns (handlers borrow
// and consume frames synchronously — the contract core.RawDatagram
// documents). Egress: the encoder's buffer becomes the driver's at
// Send and is recycled after the socket write. Reads truncate at the
// buffer's 1500 bytes; no peer sends more than wire.MaxPacketSize, so
// a longer datagram is junk and fails to decode like any other.
// Steady state performs zero allocations per packet in both
// directions, pinned by internal/perf's live-loop allocation tests.
//
// # What determinism guarantees do NOT hold
//
// Live runs are not reproducible: packet arrival order and timing come
// from the kernel and the network, loss is real (including loopback
// socket-buffer overflow, surfaced via Stats.RcvQueueDrops), and timer
// firings quantize to wall-clock scheduling latency plus the
// coalescing granularity. The determinism contract of the simulator
// (same seed → byte-identical artifacts) applies only to sim runs;
// live mode inherits the protocol logic, not the reproducibility.
//
// # Concurrency
//
// One goroutine per socket blocks in ReadFromUDPAddrPort and hands
// (buffer, source) pairs to the driver loop over a channel; everything
// else — clock, connections, handlers, egress — is touched only by the
// goroutine inside Run. This preserves the single-threaded discipline
// the protocol core was built under, which is why the stack needs no
// locks to be race-clean.
//
// This package is the audited wall-clock exception to the walltime
// analyzer (see internal/analysis): it is the one place besides
// internal/perf where reading real time is the point.
package live

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"mpquic/internal/core"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/trace"
	"mpquic/internal/wire"
)

// ErrClosed is returned by Run when the driver is closed before the
// until condition is met.
var ErrClosed = errors.New("live: driver closed")

// DefaultCoalesce is the default wake-up coalescing granularity: timer
// deadlines are rounded up to this grid so the loop does work in
// bursts instead of thrashing between NextDeadline and select. 1 ms is
// roughly the stack's natural pacing timescale (well under the 25 ms
// delayed-ACK timer and any RTO) while collapsing the sub-millisecond
// timer churn a fast transfer generates.
const DefaultCoalesce = time.Millisecond

// DefaultSocketBuffer is the SO_RCVBUF/SO_SNDBUF size requested for
// every path socket. The driver drains sockets in batches between
// protocol events, so the kernel queue is the only thing standing
// between a burst and loss; the OS clamps to its own limits.
const DefaultSocketBuffer = 1 << 22

// recvQueueLen bounds datagrams in flight between the reader
// goroutines and the driver loop.
const recvQueueLen = 1024

// ingressBatchCap bounds how many queued datagrams one clock step
// injects; the remainder is picked up by the next loop iteration.
const ingressBatchCap = 256

// Option tunes a Driver at construction.
type Option func(*Driver)

// WithCoalesce sets the wake-up coalescing granularity: the wall image
// of the next protocol-timer deadline is rounded up to a multiple of g
// before arming the loop's timer. Zero or negative disables
// coalescing (every timer deadline gets an exact wake-up).
func WithCoalesce(g time.Duration) Option {
	return func(d *Driver) { d.coalesce = g }
}

// WithSocketBuffer requests b bytes of SO_RCVBUF and SO_SNDBUF per
// path socket instead of DefaultSocketBuffer. Best-effort — the OS
// clamps to its limits. Tests use tiny values to force overflow.
func WithSocketBuffer(b int) Option {
	return func(d *Driver) { d.sockBuf = b }
}

// packetIn is one message crossing from a reader goroutine into the
// driver loop: a received datagram (kind == evData) or a socket health
// transition (see fault.go). For datagrams, buf is a wire pool buffer;
// ownership transfers with the message, and the loop recycles it once
// the handler consumed it. For events, buf is nil and err carries the
// cause where one exists.
type packetIn struct {
	s    *pathSocket
	from netip.AddrPort
	buf  []byte
	kind sockEventKind
	err  error
}

// delivery is ingest's note on one slot of its batch: the handler the
// datagram goes to (nil for a socket event, or when nobody listens) and
// whether a later datagram of the same batch goes to that handler too.
type delivery struct {
	h    netem.Handler
	more bool
}

// Stats counts driver-level activity (socket I/O, not protocol state;
// per-path protocol counters live on the connection's paths).
type Stats struct {
	PacketsIn   uint64 `json:"packets_in"`  // datagrams injected into the stack
	PacketsOut  uint64 `json:"packets_out"` // datagrams written to sockets
	BytesIn     uint64 `json:"bytes_in"`
	BytesOut    uint64 `json:"bytes_out"`
	NoHandler   uint64 `json:"no_handler"`   // ingress dropped: no handler for the socket
	NoRoute     uint64 `json:"no_route"`     // egress dropped: unknown local addr, bad remote, or no route to host
	WriteErrors uint64 `json:"write_errors"` // egress dropped: socket write failed (treated as loss)

	// EgressDiscards counts egress datagrams discarded unsent because a
	// fatal error earlier in the same flush aborted the batch (the
	// remainder is dropped deliberately, and visibly, instead of being
	// written after the driver has decided to die).
	EgressDiscards uint64 `json:"egress_discards"`

	// Socket health ladder counters (see fault.go).
	TransientReadErrs uint64 `json:"transient_read_errs"` // reader errors retried in place
	SocketsDegraded   uint64 `json:"sockets_degraded"`    // rebind ladders entered (persistent failures)
	Rebinds           uint64 `json:"rebinds"`             // successful socket rebinds
	RebindFailures    uint64 `json:"rebind_failures"`     // failed rebind attempts
	PathsFailedLive   uint64 `json:"paths_failed_live"`   // sockets abandoned after exhausting their ladder

	// CorruptDrops sums the undecodable-ingress datagrams the protocol
	// handlers silently dropped (unparsable header, undecodable
	// payload): corrupted packets are loss, never a crash. Refreshed by
	// UpdateSocketStats (and so when Run returns).
	CorruptDrops uint64 `json:"corrupt_drops"`

	// IngressBatches counts clock steps that injected at least one
	// datagram; PacketsIn / IngressBatches is the mean batch size the
	// batched loop achieved.
	IngressBatches uint64 `json:"ingress_batches"`
	// MaxBatch is the largest single-step ingress batch observed.
	MaxBatch uint64 `json:"max_batch"`
	// RcvQueueDrops is the kernel's receive-queue overflow count for
	// the driver's sockets (datagrams the kernel dropped because
	// SO_RCVBUF was full), read from /proc/net/udp[6]. Updated when
	// Run returns and by UpdateSocketStats; zero where the platform
	// does not expose the counter.
	RcvQueueDrops uint64 `json:"rcv_queue_drops"`
}

// Driver runs a sim.Clock against wall time and moves datagrams
// between the protocol core and real UDP sockets. It implements
// core.DatagramSender; pass it to core.Dial / core.Listen where the
// simulator tests pass a *netem.Network.
//
// Endpoints must run with Config.WireSerialization enabled (real
// sockets move bytes, not structs); enable Config.EnableCrypto too
// for real AEAD protection on the wire.
//
// Setup (NewDriver, Dial/Listen, Register) happens before Run; the
// goroutine calling Run then owns all protocol state until Run
// returns. Close and Wake may be called from any goroutine. That
// discipline is machine-checked: the run loop's fields below carry
// //mpq:confined annotations that mpq-vet's confine and blocking
// analyzers enforce (see DESIGN.md, "Live concurrency invariants");
// the unannotated ones are the crossings — immutable after setup, or
// a channel, a sync primitive, an atomic.
type Driver struct {
	//mpq:confined run-loop
	clock  *sim.Clock
	binder *PathBinder
	//mpq:confined run-loop
	handlers map[netem.Addr]netem.Handler
	//mpq:confined run-loop
	egress []netem.Datagram

	coalesce time.Duration
	sockBuf  int

	// Fault-tolerance knobs, immutable after NewDriver; the reader
	// goroutines' rebind ladders read them, hence not confined.
	wrap       SocketWrapper
	rebindMax  int
	rebindBase time.Duration

	//mpq:confined run-loop
	tracer trace.Tracer
	// fatal latches the error that must end Run (all sockets failed).
	//mpq:confined run-loop
	fatal error
	// sockFailed marks sockets whose rebind ladder is exhausted.
	//mpq:confined run-loop
	sockFailed []bool
	// writeFails counts consecutive persistent write errors per socket.
	//mpq:confined run-loop
	writeFails []int

	// Crossings: how reader goroutines, Wake and Close reach the loop.
	recvCh  chan packetIn
	wakeCh  chan struct{}
	closeCh chan struct{}
	closeMu sync.Once
	readers sync.WaitGroup

	//mpq:confined run-loop
	inBatch []packetIn
	// deliveries[i] goes with inBatch[i]; lastFor collects the handlers
	// whose last datagram of the batch has been found (at most one per
	// socket). Both are ingest's scratch.
	//mpq:confined run-loop
	deliveries []delivery
	//mpq:confined run-loop
	lastFor []netem.Handler
	//mpq:confined run-loop
	addrNames map[netip.AddrPort]netem.Addr

	//mpq:confined run-loop
	start time.Time
	//mpq:confined run-loop
	started bool

	//mpq:confined run-loop
	Stats Stats
}

var _ core.DatagramSender = (*Driver)(nil)

// NewDriver binds one UDP socket per local address (port 0 picks a
// free port; see Driver.LocalAddrs for the bound result) and starts
// its reader goroutines. The caller owns the driver until Close.
//
//mpq:confined run-loop
func NewDriver(localAddrs []string, opts ...Option) (*Driver, error) {
	d := &Driver{
		clock:      sim.NewClock(),
		handlers:   make(map[netem.Addr]netem.Handler),
		coalesce:   DefaultCoalesce,
		sockBuf:    DefaultSocketBuffer,
		rebindMax:  DefaultRebindMax,
		rebindBase: DefaultRebindBackoff,
		recvCh:     make(chan packetIn, recvQueueLen),
		wakeCh:     make(chan struct{}, 1),
		closeCh:    make(chan struct{}),
		inBatch:    make([]packetIn, 0, ingressBatchCap),
		deliveries: make([]delivery, ingressBatchCap),
		addrNames:  make(map[netip.AddrPort]netem.Addr),
	}
	for _, o := range opts {
		o(d)
	}
	binder, err := newPathBinder(localAddrs, d.sockBuf, d.wrap)
	if err != nil {
		return nil, err
	}
	d.binder = binder
	d.sockFailed = make([]bool, len(binder.socks))
	d.lastFor = make([]netem.Handler, 0, len(binder.socks))
	d.writeFails = make([]int, len(binder.socks))
	for _, s := range binder.socks {
		d.readers.Add(1)
		go d.readLoop(s)
	}
	return d, nil
}

// Clock returns the driver's clock (implements core.DatagramSender).
// Before Run it sits at the epoch; during Run it tracks wall-elapsed
// time since Run started.
//
//mpq:confined run-loop
func (d *Driver) Clock() *sim.Clock { return d.clock }

// LocalAddrs returns the actually-bound local path addresses in bind
// order (index i is path i's local endpoint). Pass them to core.Dial
// or core.Listen.
func (d *Driver) LocalAddrs() []netem.Addr { return d.binder.Locals() }

// Register implements core.DatagramSender: ingress datagrams arriving
// on the socket bound to addr are dispatched to h, from the next clock
// step on when called from inside one. Addresses registered with the
// same h share one reaction per step (see netem.Datagram.More). The
// loop tells handlers apart with ==, so h must be of a comparable type
// (a pointer, as core's endpoints are): wrap a netem.HandlerFunc in a
// struct registered by pointer.
//
//mpq:confined run-loop
func (d *Driver) Register(addr netem.Addr, h netem.Handler) {
	d.handlers[addr] = h
}

// Send implements core.DatagramSender: the datagram is queued and
// flushed to its socket when the current event batch finishes (egress
// order is preserved). The payload must be wire-serialized.
//
//mpq:confined run-loop
//mpq:noescape
func (d *Driver) Send(dg netem.Datagram) {
	d.egress = append(d.egress, dg)
}

// PendingIngress reports datagrams received by the readers but not yet
// injected (safe from any goroutine; tests use it to observe bursts
// queue up before a step).
func (d *Driver) PendingIngress() int { return len(d.recvCh) }

// Wake nudges a blocked Run iteration from any goroutine: the loop
// advances the clock, flushes egress and re-checks its until
// condition. Download's context cancellation uses it.
func (d *Driver) Wake() {
	select {
	case d.wakeCh <- struct{}{}:
	default:
	}
}

// addrName interns the netem.Addr string identity of a source address,
// so steady-state ingress does not allocate per packet. Driver
// goroutine only. (The cold miss path allocates inside ap.String();
// the steady-state hit path is what //mpq:noescape pins.)
//
//mpq:noescape
func (d *Driver) addrName(ap netip.AddrPort) netem.Addr {
	if a, ok := d.addrNames[ap]; ok {
		return a
	}
	a := netem.Addr(ap.String())
	d.addrNames[ap] = a
	return a
}

// readLoop owns one socket slot: it blocks in reads, retries
// transient errors in place, and walks the rebind ladder (fault.go)
// on persistent failures. It exits on driver close or when the slot's
// ladder is exhausted — a dead socket never takes the driver down
// while siblings are alive.
//
//mpq:entry reader
func (d *Driver) readLoop(s *pathSocket) {
	defer d.readers.Done()
	conn := s.loadConn()
	transient := 0 // consecutive transient read errors on this conn
	attempts := 0  // rebind attempts since the last successful read
	for {
		status, err := d.readOne(s, conn)
		if status == readOK {
			transient, attempts = 0, 0
			continue
		}
		if status == readClosed {
			return
		}
		if status == readTransient {
			d.postEvent(packetIn{s: s, kind: evTransient, err: err})
			transient++
			if transient < transientReadLimit {
				continue
			}
			// A storm of transient errors with no successful read in
			// between is not transient: escalate to the ladder.
		}
		transient = 0
		next, ok := d.rebindLadder(s, conn, err, &attempts)
		if !ok {
			return
		}
		conn = next
	}
}

// readStatus classifies one readOne outcome for the reader loop.
type readStatus uint8

const (
	readOK         readStatus = iota
	readClosed                // driver shutting down: exit quietly
	readTransient             // retry on the same conn
	readPersistent            // conn is gone: rebind ladder
)

// readOne performs one blocking read and hands the datagram to the
// driver loop. Buffer ownership transfers with the channel send; every
// other exit recycles the buffer.
func (d *Driver) readOne(s *pathSocket, conn UDPConn) (readStatus, error) {
	buf := wire.GetPacketBuf()
	b := buf[:cap(buf)]
	n, from, err := conn.ReadFromUDPAddrPort(b)
	if err == nil {
		// Unmap 4-in-6 so the string identity matches the literal
		// "ip:port" the peer's binder published.
		from = netip.AddrPortFrom(from.Addr().Unmap(), from.Port())
		select {
		case d.recvCh <- packetIn{s: s, from: from, buf: b[:n]}:
			return readOK, nil
		case <-d.closeCh:
			// Shutdown mid-handoff: fall through to the recycle.
		}
	}
	wire.PutPacketBuf(b)
	switch {
	case err == nil || d.closing():
		return readClosed, err
	case isPersistentErr(err):
		return readPersistent, fmt.Errorf("live: read %s: %w", s.local, err)
	default:
		return readTransient, err
	}
}

// Run drives the loop until the until condition reports true (checked
// after every batch of work), a terminal error occurs, or the driver
// is closed (ErrClosed). A nil until runs until Close — server mode.
//
// The first Run call pins the wall epoch: sim time 0 is that moment.
// Run may be called again after returning (e.g. one Run per transfer
// on a client driver); later calls keep the original epoch so sim
// time stays monotone across them.
//
//mpq:entry run-loop
func (d *Driver) Run(until func() bool) error {
	if !d.started {
		d.started = true
		d.start = time.Now()
	}
	defer d.UpdateSocketStats()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	defer timer.Stop()
	var armed time.Time // wall deadline the timer is armed at; zero when unarmed
	for {
		if err := d.flush(); err != nil {
			return err
		}
		if until != nil && until() {
			return nil
		}
		if d.fatal != nil {
			// Every path socket has failed (see handleSockEvent); the
			// until condition above still wins if the same batch that
			// killed the last socket also completed the work.
			return d.fatal
		}
		// Arm the wake-up at the wall image of the next sim deadline,
		// quantized up to the coalescing grid. An already-armed timer
		// at the same target is left alone — packet-driven iterations
		// pay zero timer syscalls.
		var timerC <-chan time.Time
		if dl := d.clock.NextDeadline(); dl != sim.Never {
			target := d.start.Add(d.quantize(dl.Duration()))
			if !target.Equal(armed) {
				if !armed.IsZero() && !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(time.Until(target))
				armed = target
			}
			timerC = timer.C
		} else if !armed.IsZero() {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			armed = time.Time{}
		}
		// The loop's one designated blocking site: nothing to do until a
		// packet, a timer deadline, a wake or a close arrives.
		//mpq:waitpoint
		select {
		case p := <-d.recvCh:
			if err := d.ingest(p); err != nil {
				return err
			}
		case <-timerC:
			armed = time.Time{}
			if err := d.advance(); err != nil {
				return err
			}
		case <-d.wakeCh:
			if err := d.advance(); err != nil {
				return err
			}
		case <-d.closeCh:
			d.flush()
			return ErrClosed
		}
	}
}

// quantize rounds a sim deadline up to the coalescing grid (anchored
// at the epoch), so deadlines within one granule share a wake-up.
//
//mpq:noescape
func (d *Driver) quantize(dl time.Duration) time.Duration {
	if d.coalesce <= 0 {
		return dl
	}
	q := d.coalesce
	return (dl + q - 1) / q * q
}

// ingest drains every datagram already queued by the readers into one
// batch, advances the clock once, and injects the whole batch — the
// batched-ingress half of the fast lane: one wake-up, one clock step,
// one reaction per handler, one egress flush for the entire burst.
//
//mpq:noescape
func (d *Driver) ingest(first packetIn) error {
	batch := append(d.inBatch[:0], first)
drain:
	for len(batch) < cap(batch) {
		select {
		case q := <-d.recvCh:
			batch = append(batch, q)
		default:
			break drain
		}
	}
	d.inBatch = batch[:0] // retain the scratch backing array
	if err := d.advance(); err != nil {
		recycleBatch(batch)
		return err
	}
	d.Stats.IngressBatches++
	if n := uint64(len(batch)); n > d.Stats.MaxBatch {
		d.Stats.MaxBatch = n
	}
	// Walking backwards, the first datagram met for a handler is its
	// last of this step; every earlier one is followed by More.
	to := d.deliveries[:len(batch)]
	last := d.lastFor[:0]
	for i := len(batch) - 1; i >= 0; i-- {
		to[i] = delivery{}
		if batch[i].kind != evData {
			continue
		}
		h := d.handlers[batch[i].s.local]
		if h == nil {
			continue
		}
		to[i].h = h
		for _, seen := range last {
			if seen == h {
				to[i].more = true
				break
			}
		}
		if !to[i].more {
			last = append(last, h)
		}
	}
	for i := range batch {
		p := &batch[i]
		if p.kind != evData {
			// A socket health transition riding the ingress crossing;
			// fold it into stats/traces/PF state (fault.go).
			d.handleSockEvent(p.s, p.kind, p.err)
		} else if to[i].h == nil {
			d.Stats.NoHandler++
		} else {
			d.Stats.PacketsIn++
			d.Stats.BytesIn += uint64(len(p.buf))
			// The handler borrows the buffer and consumes the frames
			// synchronously (see core.RawDatagram).
			dg := core.RawDatagram(d.addrName(p.from), p.s.local, p.buf)
			dg.More = to[i].more
			to[i].h.HandleDatagram(dg)
		}
		wire.PutPacketBuf(p.buf) // nil for a socket event
		*p = packetIn{}
	}
	if d.fatal != nil {
		// The batch marked the last live socket failed: nothing can
		// move packets any more, so Run must surface it.
		return d.fatal
	}
	return nil
}

// recycleBatch returns the buffers of a batch that will not be
// injected to the pool (error exits only).
//
//mpq:noescape
func recycleBatch(batch []packetIn) {
	for i := range batch {
		wire.PutPacketBuf(batch[i].buf)
		batch[i] = packetIn{}
	}
}

// advance moves sim time forward to the current wall-elapsed
// duration, firing every protocol timer due on the way. Sim time
// never moves backwards: a wake-up earlier than the current sim time
// (sub-timer-resolution packet bursts) is a no-op.
//
//mpq:noescape
func (d *Driver) advance() error {
	el := sim.Time(time.Since(d.start))
	if el > d.clock.Now() {
		return d.clock.RunUntil(el)
	}
	return nil
}

// structModeErr builds the misconfiguration error for a payload that
// arrived as a struct instead of wire bytes. Kept out of flush (and
// out of the inliner: the compiler attributes an inlined callee's
// escapes to the call-site line) so flush stays //mpq:noescape.
//
//go:noinline
func structModeErr(dg netem.Datagram) error {
	return fmt.Errorf("live: struct-mode payload %s->%s; endpoints must enable Config.WireSerialization", dg.From, dg.To)
}

// flush writes every egress datagram queued during the step to the
// socket owning its From address, in one pass over the persistent
// scratch slice (consecutive datagrams from one path reuse the socket
// and resolved-remote lookups). Write failures are packet loss
// (counted, not fatal), as a real wire would drop them.
//
//mpq:noescape
func (d *Driver) flush() error {
	if len(d.egress) == 0 {
		return nil
	}
	var (
		lastFrom netem.Addr
		lastSock *pathSocket
		lastTo   netem.Addr
		lastAP   netip.AddrPort
		lastOK   bool
	)
	var lastConn UDPConn
	var firstErr error
	for i := range d.egress {
		dg := d.egress[i]
		d.egress[i] = netem.Datagram{} // drop the payload reference
		if firstErr != nil {
			// Fatal misconfiguration already detected: the rest of the
			// batch is discarded unsent, counted so the loss is visible.
			d.Stats.EgressDiscards++
			wire.PutPacketBuf(dg.Raw)
			continue
		}
		b := dg.Raw
		if b == nil {
			firstErr = structModeErr(dg)
			continue
		}
		if dg.From != lastFrom || lastSock == nil {
			lastFrom = dg.From
			lastSock = d.binder.socketFor(dg.From)
			lastConn = nil
			if lastSock != nil {
				lastConn = lastSock.loadConn()
			}
		}
		if dg.To != lastTo || !lastOK {
			lastTo = dg.To
			lastAP, lastOK = d.binder.remoteAddrPort(dg.To)
		}
		if lastSock == nil || !lastOK {
			d.Stats.NoRoute++
		} else if _, err := lastConn.WriteToUDPAddrPort(b, lastAP); err != nil {
			d.noteWriteErr(lastSock, err)
		} else {
			d.Stats.PacketsOut++
			d.Stats.BytesOut += uint64(len(b))
			d.writeFails[lastSock.idx] = 0
		}
		wire.PutPacketBuf(b)
	}
	d.egress = d.egress[:0]
	return firstErr
}

// Flush writes any queued egress immediately (e.g. a CONNECTION_CLOSE
// sent after Run returned).
//
//mpq:confined run-loop
func (d *Driver) Flush() error { return d.flush() }

// UpdateSocketStats refreshes Stats.RcvQueueDrops from the kernel and
// Stats.CorruptDrops from the registered protocol handlers
// (best-effort; see Stats). Run calls it on exit; call it directly
// when reading stats without having driven the loop. Not safe
// concurrently with a running Run (it writes Stats).
//
//mpq:confined run-loop
func (d *Driver) UpdateSocketStats() {
	d.Stats.RcvQueueDrops = d.binder.kernelDrops()
	// Sum undecodable-ingress drops across the distinct handlers.
	// Iterate sockets (bind order) rather than the handlers map so the
	// walk is deterministic; several locals usually share one handler,
	// deduped by identity below.
	var seen []netem.Handler
	var total uint64
	for _, s := range d.binder.socks {
		h := d.handlers[s.local]
		if h == nil {
			continue
		}
		dup := false
		for _, prev := range seen {
			if prev == h {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen = append(seen, h)
		if cd, ok := h.(interface{ CorruptDrops() uint64 }); ok {
			total += cd.CorruptDrops()
		}
	}
	d.Stats.CorruptDrops = total
}

// Close shuts the driver down: sockets close (unblocking readers) and
// a concurrent Run returns ErrClosed. Safe to call from any goroutine
// and more than once.
func (d *Driver) Close() error {
	d.closeMu.Do(func() {
		close(d.closeCh)
		d.binder.closeSockets()
	})
	d.readers.Wait()
	return nil
}
