package tcpsim

import (
	"cmp"
	"slices"
	"time"

	"mpquic/internal/sim"
	"mpquic/internal/stream"
	"mpquic/internal/trace"
)

// Endpoint is what the application sees of a TCP-family connection,
// shared by a plain TCP connection and an MPTCP one: one byte stream
// in each direction with a FIN, the receive window, the two
// callbacks, the idle timeout and the close. The owner embeds it and
// keeps what is its own: how stream bytes map onto its flows, what to
// retransmit, and what a flow's retransmission timeout means to it.
// The Endpoint runs the connection timer over the owner's flows.
type Endpoint struct {
	cfg   Config
	clock *sim.Clock
	flows []*Flow // the owner's flows in creation order; the first carries the handshake
	// data is the set in-order stream bytes land in: the flow's own
	// received set for TCP, the connection-level one for MPTCP.
	data *stream.IntervalSet
	rto  func(*Flow) // the owner's response to a flow's retransmission timeout
	send func()      // the owner's transmit loop
	ack  func(*Flow) // the owner's bare acknowledgment on a flow

	// Written counts the stream bytes the app wrote; FinQueued reports
	// that the FIN follows them.
	Written   uint64
	FinQueued bool

	consumed   uint64
	lastAdvWnd uint64 // last advertised window (zero-window reopen)
	finRecvd   bool
	finSeq     uint64 // stream offset of the peer's FIN
	lastRecv   time.Duration

	timer  *sim.Timer
	closed bool

	onEstablished func()
	onData        func()
}

// Init readies the endpoint: data is where the owner puts in-order
// stream bytes, rto takes an established flow's retransmission timeout
// (the flow's OnRTO and what the owner requeues), send is the owner's
// transmit loop and ack sends a bare acknowledgment on one of its
// flows.
func (e *Endpoint) Init(clock *sim.Clock, cfg Config, data *stream.IntervalSet, rto func(*Flow), send func(), ack func(*Flow)) {
	e.cfg, e.clock, e.data, e.rto, e.send, e.ack = cfg, clock, data, rto, send, ack
	e.timer = sim.NewTimer(clock, e.onTimer)
	e.lastRecv = e.now()
}

func (e *Endpoint) now() time.Duration { return e.clock.Now().Duration() }

// AddFlow appends one of the owner's flows.
func (e *Endpoint) AddFlow(f *Flow) { e.flows = append(e.flows, f) }

// Flows returns the owner's flows in creation order: plain TCP has one.
func (e *Endpoint) Flows() []*Flow { return e.flows }

// Trace emits ev when tracing is enabled, stamping the current time.
func (e *Endpoint) Trace(ev trace.Event) {
	if e.cfg.Tracer == nil {
		return
	}
	ev.Time = e.now()
	e.cfg.Tracer.Trace(ev)
}

// OnEstablished registers the secure-handshake-complete callback.
func (e *Endpoint) OnEstablished(fn func()) {
	e.onEstablished = fn
	if e.flows[0].Established() {
		fn()
	}
}

// OnData registers the data-arrival callback.
func (e *Endpoint) OnData(fn func()) { e.onData = fn }

// Closed reports connection termination.
func (e *Endpoint) Closed() bool { return e.closed }

// HandshakeDone runs once the first flow's handshake finished: the
// OnEstablished callback, then Send.
func (e *Endpoint) HandshakeDone() {
	e.Trace(trace.Event{Type: trace.HandshakeDone})
	if e.onEstablished != nil {
		e.onEstablished()
	}
	e.Send()
}

// Send runs the owner's transmit loop once the first flow is
// established and the connection open, then re-arms the connection
// timer.
func (e *Endpoint) Send() {
	if e.closed || !e.flows[0].Established() {
		return
	}
	e.send()
	e.armTimer()
}

// --- application API ---

// WriteSynthetic queues n stream bytes for transmission.
func (e *Endpoint) WriteSynthetic(n uint64) {
	e.Written += n
	e.Send()
}

// CloseWrite queues the FIN after all written data.
func (e *Endpoint) CloseWrite() {
	e.FinQueued = true
	e.Send()
}

// Readable reports in-order bytes available past the consumption point.
func (e *Endpoint) Readable() uint64 {
	return e.data.FirstMissingFrom(e.consumed) - e.consumed
}

// Read consumes up to n in-order bytes, opening the receive window.
// Reopening a (near-)zero window advertises it at once on every
// established flow — without this, a sender stalled on the window
// would deadlock (TCP solves the same problem with window updates plus
// persist-timer probes).
func (e *Endpoint) Read(n uint64) uint64 {
	n = min(n, e.Readable())
	e.consumed += n
	if n > 0 && e.flows[0].Established() && e.lastAdvWnd < MSS && e.AdvertisedWindow() >= MSS {
		for _, f := range e.flows {
			if f.Established() {
				e.ack(f)
			}
		}
	}
	return n
}

// FinReceived reports whether the peer's FIN arrived (in order).
func (e *Endpoint) FinReceived() bool {
	return e.finRecvd && e.data.FirstMissingFrom(0) >= e.finSeq
}

// Finished reports whether the app consumed the whole incoming stream.
func (e *Endpoint) Finished() bool { return e.FinReceived() && e.consumed == e.finSeq }

// --- receiving ---

// Heard notes a segment from the peer: it restarts the idle timeout.
func (e *Endpoint) Heard() { e.lastRecv = e.now() }

// Delivered finishes a data-bearing segment on f once the owner put its
// bytes in the stream, which held before bytes until then; fin reports
// that it carried the peer's FIN at stream offset finSeq. The app hears
// of new bytes or the FIN, and f acknowledges at once if its policy
// says so.
func (e *Endpoint) Delivered(f *Flow, before uint64, fin bool, finSeq uint64) {
	if fin {
		e.finRecvd = true
		e.finSeq = finSeq
	}
	if e.onData != nil && (e.data.Size() > before || fin) {
		e.onData()
	}
	if f.ackDelay.Due(e.now()) {
		e.ack(f)
	}
}

// AdvertisedWindow is the classic TCP window: buffer not yet tied up
// by bytes received but not consumed.
func (e *Endpoint) AdvertisedWindow() uint64 {
	used := e.data.FirstMissingFrom(0) - e.consumed
	if used >= e.cfg.RecvWindow {
		return 0
	}
	return e.cfg.RecvWindow - used
}

// Advertise puts the receive window on seg.
func (e *Endpoint) Advertise(seg *Segment) {
	seg.Window = e.AdvertisedWindow()
	e.lastAdvWnd = seg.Window
}

// --- timer and close ---

// onTimer is the connection timer: it closes a connection the peer left
// silent for the idle timeout; otherwise each established flow sends an
// ack whose delay ran out and hands an expired retransmission timeout to
// the owner, and Send transmits what that freed and re-arms the timer.
func (e *Endpoint) onTimer() {
	if e.closed || e.idleExpired() {
		return
	}
	for _, f := range e.flows {
		if !f.Established() {
			continue
		}
		if f.ackDelay.Due(e.now()) {
			e.ack(f)
		}
		if f.RTOExpired() {
			e.rto(f)
		}
	}
	e.Send()
}

// idleExpired closes the connection and reports true when the peer has
// been silent for the idle timeout.
func (e *Endpoint) idleExpired() bool {
	if e.cfg.IdleTimeout > 0 && e.now()-e.lastRecv >= e.cfg.IdleTimeout {
		e.closeIdle()
		return true
	}
	return false
}

// armTimer points the connection timer at the earliest Deadline of the
// established flows or the idle timeout, whichever comes first, or
// stops it when both are Never.
func (e *Endpoint) armTimer() {
	deadline := Never
	for _, f := range e.flows {
		if f.Established() {
			deadline = min(deadline, f.Deadline())
		}
	}
	if e.cfg.IdleTimeout > 0 {
		deadline = min(deadline, e.lastRecv+e.cfg.IdleTimeout)
	}
	if deadline == Never {
		e.timer.Stop()
		return
	}
	e.timer.Reset(sim.Time(deadline))
}

func (e *Endpoint) closeIdle() {
	if e.closed {
		return
	}
	e.closed = true
	for _, f := range e.flows {
		f.StopHandshake()
	}
	e.timer.Stop()
	e.Trace(trace.Event{Type: trace.ConnClosed, Detail: "tcpsim: idle timeout"})
}

// Acceptor is a listener's table of accepted connections C by demux key
// K: the peer address for TCP, the token for MPTCP.
type Acceptor[K cmp.Ordered, C any] struct {
	conns  map[K]C
	onConn func(C)
}

// OnConnection registers the accept callback.
func (a *Acceptor[K, C]) OnConnection(fn func(C)) { a.onConn = fn }

// Conns returns the accepted connections sorted by key, so the order is
// deterministic (map iteration order must not leak).
func (a *Acceptor[K, C]) Conns() []C {
	keys := make([]K, 0, len(a.conns))
	for k := range a.conns {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]C, len(keys))
	for i, k := range keys {
		out[i] = a.conns[k]
	}
	return out
}

// Lookup returns the connection for key. An unknown key makes one with
// accept, announced to the OnConnection callback, when the segment at
// hand opens a connection (syn); otherwise the segment is a stray and
// ok is false.
func (a *Acceptor[K, C]) Lookup(key K, syn bool, accept func() C) (c C, ok bool) {
	if c, ok = a.conns[key]; ok || !syn {
		return c, ok
	}
	if a.conns == nil {
		a.conns = make(map[K]C)
	}
	c = accept()
	a.conns[key] = c
	if a.onConn != nil {
		a.onConn(c)
	}
	return c, true
}
