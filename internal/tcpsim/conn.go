package tcpsim

import (
	"time"

	"mpquic/internal/cc"
	"mpquic/internal/netem"
	"mpquic/internal/stream"
	"mpquic/internal/trace"
)

// Config tunes a TCP connection.
type Config struct {
	// RecvWindow is the maximum receive window (§4.1: 16 MB).
	RecvWindow uint64
	// IdleTimeout aborts a silent connection. Zero disables.
	IdleTimeout time.Duration
	// Tracer receives lifecycle and recovery events (handshake done,
	// RTO fired, segments lost, close) when non-nil. Events carry the
	// flow's ID as the path: 0 for plain TCP. A tracer is a pure
	// observer: attaching one never changes a run's schedule or
	// results, and a nil tracer costs one branch per event.
	Tracer trace.Tracer
}

// DefaultConfig mirrors the paper's TCP setup.
func DefaultConfig() Config {
	return Config{RecvWindow: 16 << 20, IdleTimeout: 120 * time.Second}
}

// Conn is one endpoint of an emulated TCP connection carrying a single
// application byte stream in each direction.
type Conn struct {
	// Flow is the connection's one TCP flow; the byte stream lives
	// directly in its sequence space (seq starts at 0 after the
	// handshake), so its received set is the Endpoint's stream.
	*Flow
	Endpoint

	rtxQueue  stream.IntervalSet
	peerLimit uint64 // cumAck+window high-water mark
}

func newTCPConn(nw *netem.Network, cfg Config, local, remote netem.Addr) *Conn {
	clock := nw.Clock()
	cub := cc.NewCubic(MSS, func() time.Duration { return clock.Now().Duration() })
	cub.SetMaxCwnd(int(cfg.RecvWindow))
	c := &Conn{Flow: NewFlow(nw, 0, local, remote, cub, true, func(seg *Segment) { seg.Window = cfg.RecvWindow })}
	c.Init(clock, cfg, &c.received, c.onFlowRTO, c.trySend, c.sendAck)
	c.AddFlow(c.Flow)
	return c
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
	Acceptor[netem.Addr, *Conn]
	nw   *netem.Network
	cfg  Config
	addr netem.Addr
}

// ListenTCP registers a server.
func ListenTCP(nw *netem.Network, cfg Config, addr netem.Addr) *Listener {
	l := &Listener{nw: nw, cfg: cfg, addr: addr}
	nw.Register(addr, l)
	return l
}

// HandleDatagram implements netem.Handler for the listener.
func (l *Listener) HandleDatagram(dg netem.Datagram) {
	seg, ok := dg.Payload.(*Segment)
	if !ok {
		return
	}
	c, ok := l.Lookup(dg.From, seg.SYN, func() *Conn { return newTCPConn(l.nw, l.cfg, l.addr, dg.From) })
	if ok {
		c.HandleDatagram(dg)
	}
}
