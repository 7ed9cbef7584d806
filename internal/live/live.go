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
//     to the 1 ms coalescing granularity so nearby timers share one
//     wake-up;
//  2. block on socket readability until that wall deadline (a select
//     over the reader channel and the timer);
//  3. on wake-up, advance the sim clock once to wall-elapsed time with
//     Clock.RunUntil (firing every due protocol timer), and inject the
//     reads queued by then via netem.Handler.HandleDatagram, each whole
//     as it leaves the queue, for as long as fewer than 256 datagrams
//     came before it: a step holds at most 255 datagrams and one more
//     read. They arrive at one sim instant, so a datagram the
//     step's next one follows to the same handler carries
//     netem.Datagram.More: the handler consumes it in full and holds
//     its reaction (sends, timer re-arm) for the one that follows. An
//     endpoint thus answers a burst once — one ACK per path per step —
//     instead of once per datagram (every production driver has one
//     handler: core registers all of a carrier's addresses with one
//     endpoint). Every handler's last datagram of a step carries
//     More=false, whatever that datagram turns out to be;
//  4. write every socket's egress batch: each Send during the step
//     queued its datagram on its socket's batch (written at once when
//     full), and each socket's datagrams go out in order, one write per
//     message; on Linux each run of equal-size datagrams to one peer is
//     one UDP_SEGMENT message, which crosses the kernel's UDP stack
//     once.
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
// Datagrams travel in run buffers (runbuf.go), one owner at a time,
// from a free list the process keeps across drivers. Ingress: a reader
// reads a run of datagrams (one UDP_GRO read) or a single datagram into
// its socket's buffer and hands the loop the read with one channel
// send; the loop cuts the run into its datagrams and hands each to
// HandleDatagram where it lies (handlers borrow and consume frames
// synchronously — the contract core.RawDatagram documents), then hands
// the read back. A datagram keeps at most netem.MTU bytes, the longest
// the simulator carries: no peer sends more than wire.MaxPacketSize,
// so a longer datagram is junk and fails to decode like any other, and
// a run of longer segments reaches the stack as one empty datagram
// instead of being cut into pieces. Egress: the driver lends core the
// free tail of the path socket's batch buffer (LendRaw), core encodes
// the packet there, and Send counts it into the batch in place; a
// datagram encoded elsewhere is copied in and left to its owner.
// Whoever lends the bytes takes them back, so the driver recycles no
// caller's buffer.
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
// One goroutine per socket blocks in a read and hands each read — a
// run of datagrams in a run buffer — to the driver loop over a channel;
// everything else — clock, connections, handlers, egress — is touched
// only by the goroutine inside Run. This preserves the single-threaded
// discipline the protocol core was built under, which is why the stack
// needs no locks to be race-clean. On Linux a socket the driver reads
// itself has UDP_GRO set, and its goroutine reads a run of datagrams
// at a time with ReadMsgUDPAddrPort; a socket behind a SocketWrapper,
// and every other platform, reads one datagram per ReadFromUDPAddrPort.
// Egress writes happen on the Run goroutine, through the standard
// library, which waits out EAGAIN: on Linux the driver's own socket
// writes each run of up to 64 datagrams as one UDP_SEGMENT message with
// WriteMsgUDPAddrPort, a slice of its batch buffer, and each other
// datagram with WriteToUDPAddrPort; a socket behind a SocketWrapper,
// and every other platform, writes each datagram with
// WriteToUDPAddrPort.
//
// This package is the audited wall-clock exception to the walltime
// analyzer (see internal/analysis): it is the one place besides
// internal/perf where reading real time is the point.
package live

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mpquic/internal/core"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/trace"
)

// ErrClosed is returned by Run when the driver is closed before the
// until condition is met.
var ErrClosed = errors.New("live: driver closed")

// coalesce is the wake-up coalescing granularity: timer deadlines are
// rounded up to this grid so the loop does work in bursts instead of
// thrashing between NextDeadline and select. 1 ms is roughly the
// stack's natural pacing timescale (well under the 25 ms delayed-ACK
// timer and any RTO) while collapsing the sub-millisecond timer churn
// a fast transfer generates.
const coalesce = time.Millisecond

// DefaultSocketBuffer is the SO_RCVBUF/SO_SNDBUF size requested for
// every path socket. The driver drains sockets in batches between
// protocol events, so the kernel queue is the only thing standing
// between a burst and loss; the OS clamps to its own limits.
const DefaultSocketBuffer = 1 << 22

// recvQueueLen bounds the reads in flight between the reader
// goroutines and the driver loop. Their bytes are bounded by the
// sockets' run buffers (runbuf.go), which may pack more small reads:
// a reader then waits in the hand-off, as it waits for a buffer, and
// the kernel's socket buffer holds the backlog.
const recvQueueLen = 512

// ingressBatchCap bounds a clock step: it takes the next queued read,
// whole, while fewer datagrams than this came before it, so its one ACK
// per path covers at most 255 packets and one read (on loopback, at
// most gsoMaxSegs). The next loop iteration picks up the remainder.
const ingressBatchCap = 256

// Option tunes a Driver at construction.
type Option func(*Driver)

// WithSocketBuffer requests b bytes of SO_RCVBUF and SO_SNDBUF per
// path socket instead of DefaultSocketBuffer. Best-effort — the OS
// clamps to its limits. Tests use tiny values to force overflow.
func WithSocketBuffer(b int) Option {
	return func(d *Driver) { d.sockBuf = b }
}

// packetIn is one message crossing from a reader goroutine into the
// driver loop: a read (kind == evData) or a socket health transition
// (see fault.go). A read is rb.reads[i], one reference to rb that
// transfers with the message; the loop hands it back (release) once
// the handler consumed the read's datagrams. For events, rb is nil and
// err carries the cause where one exists.
type packetIn struct {
	s    *pathSocket
	rb   *runBuf
	i    int32
	kind sockEventKind
	err  error
}

// datagrams counts the datagrams p carries: none for an event.
func (p *packetIn) datagrams() int {
	if p.rb == nil {
		return 0
	}
	return p.rb.reads[p.i].datagrams()
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
	// fatal error earlier in the same step will end Run (the remainder
	// is dropped deliberately, and visibly, instead of being written
	// after the driver has decided to die).
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
	// EgressWrites counts egress write system calls, one per message:
	// a UDP_SEGMENT run or a single datagram, refused writes included.
	// PacketsOut / EgressWrites is the mean datagrams per message, the
	// counterpart of PacketsIn / IngressBatches.
	EgressWrites uint64 `json:"egress_writes"`
	// RcvQueueDrops is the kernel's receive-queue overflow count for
	// the driver's sockets (datagrams the kernel dropped because
	// SO_RCVBUF was full), read from /proc/net/udp[6]. The kernel
	// counts a dropped UDP_GRO run once, however many datagrams it
	// held, so on an offloading socket this undercounts the loss.
	// Updated when
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
// discipline is machine-checked: the run loop's fields below are
// marked //mpq:confined, which mpq-vet's confine and blocking
// analyzers enforce (see DESIGN.md, "Live concurrency invariants");
// the unannotated ones are the crossings — immutable after setup, or
// a channel, a sync primitive, an atomic.
type Driver struct {
	//mpq:confined
	clock *sim.Clock

	// socks maps the address identities the core stack uses for its
	// paths onto real UDP sockets. Core identifies a path by its
	// (local, remote) netem.Addr pair; in live mode those strings are
	// literal "ip:port" addresses. Path IDs map through position:
	// core.Dial pairs locals[i] with remotes[i] as path i, and socks
	// keeps bind order, so socks[i] is the local endpoint of path i
	// (the paper's WiFi+LTE dual-homing is two loopback ports in the
	// tests). It is fixed after NewDriver: a rebind swaps a slot's conn
	// pointer, not the slot.
	socks []*pathSocket
	// remotes caches resolved egress destinations, so the per-packet
	// egress path allocates nothing. Servers need no remote table up
	// front: remotes are learned per-datagram from the ingress source.
	//mpq:confined
	remotes map[netem.Addr]netip.AddrPort
	// sendErr latches a misconfiguration Send found (a struct-mode
	// payload) until the next flush returns it; the datagrams sent
	// after it are discarded.
	//mpq:confined
	sendErr error

	sockBuf int

	// Fault-tolerance knobs, immutable after NewDriver; the reader
	// goroutines' rebind ladders read them, hence not confined.
	wrap       SocketWrapper
	rebindMax  int
	rebindBase time.Duration

	//mpq:confined
	tracer trace.Tracer
	// fatal latches the error that must end Run (all sockets failed).
	//mpq:confined
	fatal error

	// Crossings: how reader goroutines, Wake and Close reach the loop.
	// pending counts the datagrams in reads handed over and not yet
	// injected.
	recvCh  chan packetIn
	pending atomic.Int64
	wakeCh  chan struct{}
	closeCh chan struct{}
	closeMu sync.Once
	readers sync.WaitGroup

	//mpq:confined
	addrNames map[netip.AddrPort]netem.Addr

	//mpq:confined
	start time.Time
	//mpq:confined
	started bool

	//mpq:confined
	Stats Stats
}

var _ core.DatagramSender = (*Driver)(nil)

// NewDriver binds one UDP socket per local address (port 0 picks a
// free port; see Driver.LocalAddrs for the bound result) and starts
// its reader goroutines. The caller owns the driver until Close.
//
//mpq:confined
func NewDriver(localAddrs []string, opts ...Option) (*Driver, error) {
	if len(localAddrs) == 0 {
		return nil, fmt.Errorf("live: need at least one local address")
	}
	d := &Driver{
		clock:      sim.NewClock(),
		remotes:    make(map[netem.Addr]netip.AddrPort),
		sockBuf:    DefaultSocketBuffer,
		rebindMax:  DefaultRebindMax,
		rebindBase: DefaultRebindBackoff,
		recvCh:     make(chan packetIn, recvQueueLen),
		wakeCh:     make(chan struct{}, 1),
		closeCh:    make(chan struct{}),
		addrNames:  make(map[netip.AddrPort]netem.Addr),
	}
	for _, o := range opts {
		o(d)
	}
	// Addresses may use port 0; the kernel-assigned port becomes part
	// of the path identity (see LocalAddrs).
	for i, a := range localAddrs {
		ua, err := net.ResolveUDPAddr("udp", a)
		if err == nil && ua.IP == nil {
			// A wildcard bind would make the local path identity
			// ambiguous (the From address core stamps on egress must
			// name one socket).
			err = fmt.Errorf("wildcard address not allowed; bind an explicit IP")
		}
		var c UDPConn
		var lap netip.AddrPort
		if err == nil {
			c, lap, err = listenPath(i, ua, d.sockBuf, d.wrap)
		}
		if err != nil {
			d.closeSockets()
			return nil, fmt.Errorf("live: bind %s: %w", a, err)
		}
		s := &pathSocket{idx: i, local: netem.Addr(lap.String()), ap: lap}
		s.storeConn(c)
		d.socks = append(d.socks, s)
	}
	d.takeRunBufs()
	for _, s := range d.socks {
		d.readers.Add(1)
		go d.readLoop(s)
	}
	return d, nil
}

// Clock returns the driver's clock (implements core.DatagramSender).
// Before Run it sits at the epoch; during Run it tracks wall-elapsed
// time since Run started.
//
//mpq:confined
func (d *Driver) Clock() *sim.Clock { return d.clock }

// LocalAddrs returns the actually-bound local path addresses in bind
// order (index i is path i's local endpoint). Pass them to core.Dial
// or core.Listen.
func (d *Driver) LocalAddrs() []netem.Addr {
	out := make([]netem.Addr, len(d.socks))
	for i, s := range d.socks {
		out[i] = s.local
	}
	return out
}

// Register implements core.DatagramSender: ingress datagrams arriving
// on the socket bound to addr are dispatched to h, from the next read
// the loop takes when called from inside a step. Addresses registered
// with the same h share one reaction per step (see netem.Datagram.More).
// The loop tells handlers apart with ==, so h must be of a comparable
// type (a pointer, as core's endpoints are): wrap a netem.HandlerFunc
// in a struct registered by pointer. An address no socket owns is
// ignored: no datagram could ever arrive on it.
//
//mpq:confined
func (d *Driver) Register(addr netem.Addr, h netem.Handler) {
	if s := d.socket(addr); s != nil {
		s.handler = h
	}
}

// socket returns the path socket bound to addr, nil when none is. A
// scan: a handful of string compares, cheaper than hashing.
//
//mpq:noescape
func (d *Driver) socket(addr netem.Addr) *pathSocket {
	for _, s := range d.socks {
		if s.local == addr {
			return s
		}
	}
	return nil
}

// Send implements core.DatagramSender: the datagram joins its socket's
// batch, which goes out when full or when the current event batch
// finishes (egress order is preserved per socket). The payload must be
// wire-serialized. A payload encoded into the bytes LendRaw lent is
// already in place; any other is copied in, and the caller's buffer is
// never touched again: the driver neither keeps nor recycles it.
//
//mpq:confined
//mpq:noescape
func (d *Driver) Send(dg netem.Datagram) {
	b := dg.Raw
	if d.sendErr != nil {
		// A misconfiguration found earlier in the step ends Run: the
		// rest is discarded unsent, counted so the loss is visible.
		d.Stats.EgressDiscards++
		return
	}
	if b == nil {
		d.sendErr = structModeErr(dg)
		return
	}
	s := d.socket(dg.From)
	var to netip.AddrPort
	ok := s != nil
	if ok {
		to, ok = d.peer(s, dg.To)
	}
	if !ok {
		d.Stats.NoRoute++
		return
	}
	d.queue(s, b, to)
}

// LendRaw lends the free tail of the batch buffer of the socket bound
// to from — length 0, capacity netem.MTU — for core to encode a datagram
// into and Send (see core's rawLender). Nil when no socket is bound to
// from. Nothing but that Send may be queued on the socket in between.
//
//mpq:confined
//mpq:noescape
func (d *Driver) LendRaw(from netem.Addr) []byte {
	s := d.socket(from)
	if s == nil {
		return nil
	}
	q := &s.out
	if q.rb == nil {
		q.rb = getRunBuf()
	}
	at := q.tail()
	return q.rb.b[at : at : at+netem.MTU]
}

// PendingIngress reports datagrams received by the readers but not yet
// injected (safe from any goroutine; tests use it to observe bursts
// queue up before a step).
func (d *Driver) PendingIngress() int { return int(d.pending.Load()) }

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
// while siblings are alive. NewDriver runs it on a goroutine of its
// own, never on the run loop.
func (d *Driver) readLoop(s *pathSocket) {
	defer d.readers.Done()
	var r runReader
	defer func() {
		if r.rb != nil {
			d.release(s, r.rb)
		}
	}()
	conn := s.loadConn()
	transient := 0 // consecutive transient read errors on this conn
	attempts := 0  // rebind attempts since the last successful read
	for {
		status, err := d.readOne(s, conn, &r)
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

// readOne performs one blocking read into the reader's run buffer and
// hands the read to the driver loop with one channel send. An unwrapped
// socket has UDP_GRO set (listenPath) and is read by readRun, a run of
// datagrams at a time; any other reads one datagram.
func (d *Driver) readOne(s *pathSocket, conn UDPConn, r *runReader) (readStatus, error) {
	uc, runs := conn.(*net.UDPConn)
	runs = runs && offload && d.wrap == nil
	window := netem.MTU
	if runs {
		window = maxRun
	}
	rb := d.room(s, r, window)
	if rb == nil {
		return readClosed, nil
	}
	b := rb.b[r.off : r.off+window]
	var n, seg int
	var from netip.AddrPort
	var err error
	if runs {
		n, seg, from, err = readRun(uc, rb, b)
	} else {
		n, from, err = conn.ReadFromUDPAddrPort(b)
		seg = n
	}
	if err != nil {
		return d.readFailed(s, err)
	}
	n, seg = cut(n, seg)
	// Unmap 4-in-6 so the string identity matches the literal "ip:port"
	// the peer's sockets are bound to.
	from = netip.AddrPortFrom(from.Addr().Unmap(), from.Port())
	i := r.k
	rb.reads[i] = runRead{from: from, off: int32(r.off), n: int32(n), seg: int32(seg)}
	r.off += n
	r.k++
	rb.refs.Add(1)
	d.pending.Add(int64(rb.reads[i].datagrams()))
	select {
	case d.recvCh <- packetIn{s: s, rb: rb, i: int32(i)}:
		return readOK, nil
	case <-d.closeCh:
		// Shutdown mid-handoff: the read goes back unread.
		rb.refs.Add(-1)
		return readClosed, nil
	}
}

// readFailed classifies a read that delivered nothing: err is the
// read's error, nil when the driver closed during the handoff.
//
//go:noinline
func (d *Driver) readFailed(s *pathSocket, err error) (readStatus, error) {
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
// after every batch of work), a terminal error occurs, or the driver is
// closed (ErrClosed).
// A nil until runs until Close — server mode.
//
// The first Run call pins the wall epoch: sim time 0 is that moment.
// Run may be called again after returning (e.g. one Run per transfer
// on a client driver); later calls keep the original epoch so sim
// time stays monotone across them.
//
//mpq:entry
func (d *Driver) Run(until func() bool) error {
	if !d.started {
		d.started = true
		d.start = time.Now()
	}
	defer d.UpdateSocketStats()
	defer d.releaseEgress()
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
			target := d.start.Add(quantize(dl.Duration()))
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
func quantize(dl time.Duration) time.Duration {
	return (dl + coalesce - 1) / coalesce * coalesce
}

// ingest advances the clock once and injects first and the reads queued
// when it starts, each whole, while the reads taken leave room under
// ingressBatchCap datagrams — the batched-ingress half of the fast
// lane: one wake-up, one clock step, one reaction per handler, one
// egress flush for the entire burst. Each read leaves the queue before
// the one ahead of it goes in, whose last More it decides.
//
//mpq:noescape
func (d *Driver) ingest(first packetIn) error {
	queued := len(d.recvCh)
	if err := d.advance(); err != nil {
		d.drop(&first)
		return err
	}
	d.Stats.IngressBatches++
	taken := 0
	p, h := first, first.handler()
	for {
		// A read that fills the step to the cap is its last.
		var next packetIn
		var nh netem.Handler
		took := false
		k := p.datagrams()
		if queued > 0 && taken+k < ingressBatchCap {
			select {
			case next = <-d.recvCh:
				queued--
				took, nh = true, next.handler()
			default:
				queued = 0
			}
		}
		switch {
		case p.kind != evData:
			// A socket health transition riding the ingress crossing;
			// fold it into stats/traces/PF state (fault.go).
			d.handleSockEvent(p.s, p.kind, p.err)
		case h == nil:
			d.Stats.NoHandler += uint64(k)
			d.drop(&p)
		default:
			d.inject(&p, h, took && nh == h)
		}
		taken += k
		if !took {
			break
		}
		p, h = next, nh
	}
	if n := uint64(taken); n > d.Stats.MaxBatch {
		d.Stats.MaxBatch = n
	}
	// A step that marked the last live socket failed ends Run: nothing
	// can move packets any more.
	return d.fatal
}

// handler returns the handler p's datagrams go to: nil for a socket
// event, or when nobody listens.
func (p *packetIn) handler() netem.Handler {
	if p.kind != evData {
		return nil
	}
	return p.s.handler
}

// inject hands p's datagrams to h, each where it lies in the run
// buffer, and then hands the read back. Every datagram but the read's
// last carries More, and that one carries more.
//
//mpq:noescape
func (d *Driver) inject(p *packetIn, h netem.Handler, more bool) {
	rd := &p.rb.reads[p.i]
	run := p.rb.b[rd.off : rd.off+rd.n]
	seg := int(rd.seg)
	from := d.addrName(rd.from)
	for {
		k := len(run)
		if seg > 0 && seg < k {
			k = seg
		}
		// The handler borrows the datagram and consumes the frames
		// synchronously (see core.RawDatagram); capped, so nothing it
		// appends reaches the next datagram of the run.
		dg := core.RawDatagram(from, p.s.local, run[:k:k])
		run = run[k:]
		dg.More = more || len(run) > 0
		d.Stats.PacketsIn++
		d.Stats.BytesIn += uint64(k)
		h.HandleDatagram(dg)
		if len(run) == 0 {
			break
		}
	}
	d.pending.Add(-int64(rd.datagrams()))
	d.release(p.s, p.rb)
}

// drop hands back a read that will not be injected, uncounted: an
// error exit, a socket nobody listens on.
//
//mpq:noescape
func (d *Driver) drop(p *packetIn) {
	if p.rb != nil {
		d.pending.Add(-int64(p.datagrams()))
		d.release(p.s, p.rb)
	}
	*p = packetIn{}
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

// flush writes every socket's batch, and returns the misconfiguration
// a Send of the step found, if any. Write failures are packet loss
// (counted, not fatal), as a real wire would drop them; a socket whose
// writes keep failing has its paths failed here, outside any Send
// (noteWriteErr), and what they send then waits for the next flush.
//
//mpq:noescape
func (d *Driver) flush() error {
	for _, s := range d.socks {
		d.writeBatch(s)
	}
	for _, s := range d.socks {
		if s.writeFailed {
			s.writeFailed = false
			d.failPaths(s)
		}
	}
	err := d.sendErr
	d.sendErr = nil
	return err
}

// Flush writes any queued egress immediately (e.g. a CONNECTION_CLOSE
// sent after Run returned).
//
//mpq:confined
func (d *Driver) Flush() error {
	err := d.flush()
	d.releaseEgress()
	return err
}

// UpdateSocketStats refreshes Stats.RcvQueueDrops from the kernel and
// Stats.CorruptDrops from the registered protocol handlers
// (best-effort; see Stats). Run calls it on exit; call it directly
// when reading stats without having driven the loop. Not safe
// concurrently with a running Run (it writes Stats).
//
//mpq:confined
func (d *Driver) UpdateSocketStats() {
	// Sum the kernel's receive-queue overflow counters (sockstats.go)
	// and the undecodable-ingress drops across the distinct handlers;
	// several locals usually share one handler, deduped by identity.
	var corrupt uint64
	var seen []netem.Handler
	for _, s := range d.socks {
		if s.handler == nil || slices.Contains(seen, s.handler) {
			continue
		}
		seen = append(seen, s.handler)
		if cd, ok := s.handler.(interface{ CorruptDrops() uint64 }); ok {
			corrupt += cd.CorruptDrops()
		}
	}
	d.Stats.RcvQueueDrops = procUDPDrops(d.socks)
	d.Stats.CorruptDrops = corrupt
}

// Close shuts the driver down: sockets close (unblocking readers) and
// a concurrent Run returns ErrClosed. Safe to call from any goroutine
// and more than once.
func (d *Driver) Close() error {
	d.closeMu.Do(func() {
		close(d.closeCh)
		d.closeSockets()
		d.readers.Wait()
		d.reclaimRunBufs()
	})
	d.readers.Wait()
	return nil
}
