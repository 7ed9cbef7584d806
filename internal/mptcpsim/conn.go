package mptcpsim

import (
	"fmt"
	"sort"
	"time"

	"mpquic/internal/cc"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/stream"
	"mpquic/internal/tcpsim"
	"mpquic/internal/trace"
)

// Config tunes an MPTCP connection.
type Config struct {
	// RecvWindow is the connection-level receive window (16 MB in the
	// paper's setup).
	RecvWindow uint64
	// TLS enables the 2-RTT TLS 1.2 exchange on the initial subflow.
	TLS bool
	// ORP enables Opportunistic Retransmission and Penalization.
	// Ablation switch (§4.1 blames ORP for goodput loss on
	// heterogeneous paths).
	ORP bool
	// IdleTimeout aborts a silent connection.
	IdleTimeout time.Duration
	// Tracer receives lifecycle and recovery events (subflow opened,
	// handshake done, RTO fired, segments lost, PF transitions, close)
	// when non-nil. Events carry the subflow ID as the path. A tracer
	// is a pure observer: attaching one never changes a run's schedule
	// or results, and a nil tracer costs one branch per event.
	Tracer trace.Tracer
}

// DefaultConfig mirrors MPTCP v0.91 with the paper's settings.
func DefaultConfig() Config {
	return Config{RecvWindow: 16 << 20, TLS: true, ORP: true, IdleTimeout: 120 * time.Second}
}

// Stats aggregates connection counters.
type Stats struct {
	Reinjections  uint64
	Penalizations uint64
}

// dataChunk queues connection-level data for (re)injection.
type dataChunk struct {
	start, end uint64
	dataFin    bool
}

// Conn is one endpoint of an MPTCP connection.
type Conn struct {
	cfg      Config
	clock    *sim.Clock
	nw       *netem.Network
	isClient bool
	token    uint32

	locals  []netem.Addr
	remotes []netem.Addr

	subflows []*Subflow
	olia     *cc.Olia

	established bool // secure (TLS) established on subflow 0

	// Connection-level send state.
	writeOffset   uint64
	dataNxt       uint64
	finQueued     bool
	finAssigned   bool
	dataAcked     uint64 // peer's cumulative data ack
	peerDataLimit uint64 // dataAck + window high-water mark
	reinjectQueue []dataChunk
	lastORPAt     uint64 // dataAcked value of the last ORP reinjection
	orpArmed      bool

	// Connection-level receive state.
	dataReceived stream.IntervalSet
	consumed     uint64
	lastAdvWnd   uint64 // last advertised data-level window
	dataFinRecvd bool
	dataFinSeq   uint64

	timer        *sim.Timer
	lastRecvTime time.Duration
	closed       bool
	closeErr     error

	onEstablished func()
	onData        func()
	onClosed      func(error)

	Stats Stats
}

func newConn(nw *netem.Network, cfg Config, isClient bool, token uint32, locals, remotes []netem.Addr) *Conn {
	c := &Conn{
		cfg:      cfg,
		clock:    nw.Clock(),
		nw:       nw,
		isClient: isClient,
		token:    token,
		locals:   locals,
		remotes:  remotes,
		olia:     cc.NewOlia(MSS),
	}
	c.timer = sim.NewTimer(c.clock, c.onTimer)
	c.lastRecvTime = c.now()
	return c
}

func (c *Conn) now() time.Duration { return c.clock.Now().Duration() }

// trace emits ev when tracing is enabled, stamping the current time.
func (c *Conn) trace(ev trace.Event) {
	if c.cfg.Tracer == nil {
		return
	}
	ev.Time = c.now()
	c.cfg.Tracer.Trace(ev)
}

// SampleInto appends one PathSample per subflow (creation order) to
// rec, stamped with the current simulated time. Sampling only reads
// state; attaching a sampler never changes a run's schedule or
// results.
func (c *Conn) SampleInto(rec *trace.SeriesRecorder) {
	for _, sf := range c.subflows {
		sf.SampleInto(rec)
	}
}

// DialMPTCP starts a client connection: the initial subflow's 3-way
// handshake (plus TLS) runs on locals[0]→remotes[0]; additional
// subflows join — each with its own 3-way handshake — once the
// connection is established.
func DialMPTCP(nw *netem.Network, cfg Config, token uint32, locals, remotes []netem.Addr) *Conn {
	if len(locals) == 0 || len(remotes) == 0 {
		panic("mptcpsim: need at least one address pair")
	}
	c := newConn(nw, cfg, true, token, locals, remotes)
	for _, a := range locals {
		nw.Register(a, c)
	}
	c.addSubflow(0, locals[0], remotes[0]).Connect()
	return c
}

// Listener accepts MPTCP connections, demultiplexing by token.
type Listener struct {
	nw     *netem.Network
	cfg    Config
	addrs  []netem.Addr
	conns  map[uint32]*Conn
	onConn func(*Conn)
}

// ListenMPTCP registers a server on the given addresses.
func ListenMPTCP(nw *netem.Network, cfg Config, addrs []netem.Addr) *Listener {
	l := &Listener{nw: nw, cfg: cfg, addrs: addrs, conns: make(map[uint32]*Conn)}
	for _, a := range addrs {
		nw.Register(a, l)
	}
	return l
}

// OnConnection registers the accept callback.
func (l *Listener) OnConnection(fn func(*Conn)) { l.onConn = fn }

// Conns returns accepted connections, sorted by token so the order is
// deterministic (map iteration order must not leak).
func (l *Listener) Conns() []*Conn {
	tokens := make([]uint32, 0, len(l.conns))
	for tok := range l.conns {
		tokens = append(tokens, tok)
	}
	sort.Slice(tokens, func(i, j int) bool { return tokens[i] < tokens[j] })
	out := make([]*Conn, 0, len(tokens))
	for _, tok := range tokens {
		out = append(out, l.conns[tok])
	}
	return out
}

// HandleDatagram implements netem.Handler for the listener.
func (l *Listener) HandleDatagram(dg netem.Datagram) {
	seg, ok := dg.Payload.(*tcpsim.Segment)
	if !ok {
		return
	}
	c, exists := l.conns[seg.Token]
	if !exists {
		if !seg.SYN {
			return
		}
		c = newConn(l.nw, l.cfg, false, seg.Token, l.addrs, []netem.Addr{dg.From})
		l.conns[seg.Token] = c
		if l.onConn != nil {
			l.onConn(c)
		}
	}
	c.handleSegment(dg, seg)
}

// HandleDatagram implements netem.Handler for the client side.
func (c *Conn) HandleDatagram(dg netem.Datagram) {
	seg, ok := dg.Payload.(*tcpsim.Segment)
	if !ok {
		return
	}
	c.handleSegment(dg, seg)
}

// addSubflow creates subflow state. TLS runs on the initial subflow
// only; joined subflows (and a non-TLS initial one) make a plain 3WHS.
func (c *Conn) addSubflow(id uint8, local, remote netem.Addr) *Subflow {
	path := c.olia.AddPath()
	path.SetMaxCwnd(int(c.cfg.RecvWindow))
	sf := &Subflow{Flow: tcpsim.NewFlow(c.nw, id, local, remote, path, id == 0 && c.cfg.TLS,
		func(seg *tcpsim.Segment) {
			c.stamp(seg, id)
			seg.Join = seg.SYN && id != 0
			seg.Window = c.advertisedWindow()
		})}
	c.subflows = append(c.subflows, sf)
	return sf
}

// stamp marks seg as a segment of this connection's subflow id.
func (c *Conn) stamp(seg *tcpsim.Segment, id uint8) {
	seg.MP = true
	seg.Token = c.token
	seg.SubflowID = id
}

// SubflowByID returns a subflow or nil.
func (c *Conn) SubflowByID(id uint8) *Subflow {
	for _, sf := range c.subflows {
		if sf.ID == id {
			return sf
		}
	}
	return nil
}

// Subflows returns all subflows.
func (c *Conn) Subflows() []*Subflow { return c.subflows }

// Flows returns the subflows' TCP flows, in creation order.
func (c *Conn) Flows() []*tcpsim.Flow {
	out := make([]*tcpsim.Flow, len(c.subflows))
	for i, sf := range c.subflows {
		out[i] = sf.Flow
	}
	return out
}

// Established reports whether the secure handshake completed.
func (c *Conn) Established() bool { return c.established }

// Closed reports termination.
func (c *Conn) Closed() bool { return c.closed }

// Err returns the close reason.
func (c *Conn) Err() error { return c.closeErr }

// OnEstablished registers the establishment callback.
func (c *Conn) OnEstablished(fn func()) {
	c.onEstablished = fn
	if c.established {
		fn()
	}
}

// OnData registers the data callback.
func (c *Conn) OnData(fn func()) { c.onData = fn }

// OnClosed registers the close callback.
func (c *Conn) OnClosed(fn func(error)) { c.onClosed = fn }

// --- application API ---

// WriteSynthetic queues n connection-level stream bytes.
func (c *Conn) WriteSynthetic(n uint64) {
	c.writeOffset += n
	c.trySend()
}

// CloseWrite queues the DATA_FIN after all data.
func (c *Conn) CloseWrite() {
	c.finQueued = true
	c.trySend()
}

// Readable reports in-order connection-level bytes past the consumer.
func (c *Conn) Readable() uint64 {
	return c.dataReceived.FirstMissingFrom(c.consumed) - c.consumed
}

// Read consumes up to n bytes, opening the shared receive window.
// Reopening a (near-)zero window advertises it immediately on every
// established subflow, as TCP's zero-window update does.
func (c *Conn) Read(n uint64) uint64 {
	avail := c.Readable()
	if n > avail {
		n = avail
	}
	c.consumed += n
	if n > 0 && c.established && c.lastAdvWnd < MSS && c.advertisedWindow() >= MSS {
		for _, sf := range c.subflows {
			if sf.Established() {
				c.sendAck(sf)
			}
		}
	}
	return n
}

// BytesReceived reports distinct data bytes received.
func (c *Conn) BytesReceived() uint64 { return c.dataReceived.Size() }

// FinReceived reports an in-order DATA_FIN.
func (c *Conn) FinReceived() bool {
	return c.dataFinRecvd && c.dataReceived.FirstMissingFrom(0) >= c.dataFinSeq
}

// Finished reports full consumption of the incoming stream.
func (c *Conn) Finished() bool { return c.FinReceived() && c.consumed == c.dataFinSeq }

func (c *Conn) closeWith(err error) {
	if c.closed {
		return
	}
	c.closed = true
	c.closeErr = err
	c.timer.Stop()
	for _, sf := range c.subflows {
		sf.StopHandshake()
	}
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	c.trace(trace.Event{Type: trace.ConnClosed, Detail: detail})
	if c.onClosed != nil {
		c.onClosed(err)
	}
}

var errIdle = fmt.Errorf("mptcpsim: idle timeout")
