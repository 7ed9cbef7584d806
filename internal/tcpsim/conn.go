package tcpsim

import (
	"sort"
	"time"

	"mpquic/internal/cc"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/stream"
	"mpquic/internal/trace"
)

// Config tunes a TCP connection.
type Config struct {
	// RecvWindow is the maximum receive window (§4.1: 16 MB).
	RecvWindow uint64
	// TLS enables the 2-RTT TLS 1.2 handshake after the 3-way
	// handshake (the paper's https baseline).
	TLS bool
	// IdleTimeout aborts a silent connection. Zero disables.
	IdleTimeout time.Duration
	// Tracer receives lifecycle and recovery events (handshake done,
	// RTO fired, segments lost, close) when non-nil. TCP is a single
	// flow, so events carry path 0. A tracer is a pure observer:
	// attaching one never changes a run's schedule or results, and a
	// nil tracer costs one branch per event.
	Tracer trace.Tracer
}

// DefaultConfig mirrors the paper's TCP setup.
func DefaultConfig() Config {
	return Config{RecvWindow: 16 << 20, TLS: true, IdleTimeout: 120 * time.Second}
}

// Conn is one endpoint of an emulated TCP connection carrying a single
// application byte stream in each direction.
type Conn struct {
	// Flow is the connection's one TCP flow; the byte stream below
	// lives directly in its sequence space (seq starts at 0 after the
	// handshake).
	*Flow
	cfg Config

	// --- send side ---
	writeOffset uint64 // bytes the app wrote
	finQueued   bool
	rtxQueue    stream.IntervalSet
	peerLimit   uint64 // cumAck+window high-water mark
	rtoTimer    *sim.Timer

	// --- receive side ---
	consumed     uint64
	lastAdvWnd   uint64 // last advertised window (zero-window reopen)
	finRecvSeq   uint64
	finRecvd     bool
	lastRecvTime time.Duration

	closed   bool
	closeErr error

	onEstablished func()
	onData        func()
	onClosed      func(error)
}

func newTCPConn(nw *netem.Network, cfg Config, local, remote netem.Addr) *Conn {
	clock := nw.Clock()
	cub := cc.NewCubic(MSS, func() time.Duration { return clock.Now().Duration() })
	cub.SetMaxCwnd(int(cfg.RecvWindow))
	c := &Conn{cfg: cfg}
	c.Flow = NewFlow(nw, 0, local, remote, cub, cfg.TLS, func(seg *Segment) { seg.Window = cfg.RecvWindow })
	c.rtoTimer = sim.NewTimer(clock, c.onRTO)
	c.lastRecvTime = c.now()
	return c
}

// trace emits ev when tracing is enabled, stamping the current time.
func (c *Conn) trace(ev trace.Event) {
	if c.cfg.Tracer == nil {
		return
	}
	ev.Time = c.now()
	c.cfg.Tracer.Trace(ev)
}

// DialTCP starts a client connection (SYN goes out immediately).
func DialTCP(nw *netem.Network, cfg Config, local, remote netem.Addr) *Conn {
	c := newTCPConn(nw, cfg, local, remote)
	nw.Register(local, c)
	c.Connect()
	return c
}

// Listener accepts TCP connections on one address, demultiplexed by
// peer address.
type Listener struct {
	nw     *netem.Network
	cfg    Config
	addr   netem.Addr
	conns  map[netem.Addr]*Conn
	onConn func(*Conn)
}

// ListenTCP registers a server.
func ListenTCP(nw *netem.Network, cfg Config, addr netem.Addr) *Listener {
	l := &Listener{nw: nw, cfg: cfg, addr: addr, conns: make(map[netem.Addr]*Conn)}
	nw.Register(addr, l)
	return l
}

// OnConnection registers the accept callback.
func (l *Listener) OnConnection(fn func(*Conn)) { l.onConn = fn }

// Conns returns accepted connections, sorted by peer address so the
// order is deterministic (map iteration order must not leak).
func (l *Listener) Conns() []*Conn {
	addrs := make([]netem.Addr, 0, len(l.conns))
	for a := range l.conns {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	out := make([]*Conn, 0, len(addrs))
	for _, a := range addrs {
		out = append(out, l.conns[a])
	}
	return out
}

// HandleDatagram implements netem.Handler for the listener.
func (l *Listener) HandleDatagram(dg netem.Datagram) {
	seg, ok := dg.Payload.(*Segment)
	if !ok {
		return
	}
	c, exists := l.conns[dg.From]
	if !exists {
		if !seg.SYN {
			return // stray segment for a dead connection
		}
		c = newTCPConn(l.nw, l.cfg, l.addr, dg.From)
		l.conns[dg.From] = c
		if l.onConn != nil {
			l.onConn(c)
		}
	}
	c.HandleDatagram(dg)
}

// Flows returns the connection's flows: plain TCP has one.
func (c *Conn) Flows() []*Flow { return []*Flow{c.Flow} }

// OnEstablished registers the secure-handshake-complete callback.
func (c *Conn) OnEstablished(fn func()) {
	c.onEstablished = fn
	if c.Established() {
		fn()
	}
}

// OnData registers the data-arrival callback.
func (c *Conn) OnData(fn func()) { c.onData = fn }

// OnClosed registers the close callback.
func (c *Conn) OnClosed(fn func(error)) { c.onClosed = fn }

// Closed reports connection termination.
func (c *Conn) Closed() bool { return c.closed }

// Err returns the close reason, if any.
func (c *Conn) Err() error { return c.closeErr }

// --- application API ---

// WriteSynthetic queues n stream bytes for transmission.
func (c *Conn) WriteSynthetic(n uint64) {
	c.writeOffset += n
	c.trySend()
}

// CloseWrite queues the FIN after all written data.
func (c *Conn) CloseWrite() {
	c.finQueued = true
	c.trySend()
}

// Readable reports in-order bytes available past the consumption point.
func (c *Conn) Readable() uint64 {
	return c.received.FirstMissingFrom(c.consumed) - c.consumed
}

// Read consumes up to n in-order bytes, opening the receive window.
// Reopening a (near-)zero window immediately advertises it — without
// this, a sender stalled on the window would deadlock (TCP solves the
// same problem with window updates plus persist-timer probes).
func (c *Conn) Read(n uint64) uint64 {
	avail := c.Readable()
	if n > avail {
		n = avail
	}
	c.consumed += n
	if n > 0 && c.Established() && c.lastAdvWnd < MSS && c.advertisedWindow() >= MSS {
		c.sendAck()
	}
	return n
}

// FinReceived reports whether the peer's FIN arrived (in order).
func (c *Conn) FinReceived() bool {
	return c.finRecvd && c.received.FirstMissingFrom(0) >= c.finRecvSeq
}

// Finished reports whether the app consumed the whole incoming stream.
func (c *Conn) Finished() bool { return c.FinReceived() && c.consumed == c.finRecvSeq }

// AllAcked reports whether everything written (and FIN) was acked.
func (c *Conn) AllAcked() bool {
	return c.finQueued && c.FinAcked() && c.cumAcked >= c.writeOffset
}
