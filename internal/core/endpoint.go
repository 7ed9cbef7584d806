package core

import (
	"sort"

	"mpquic/internal/netem"
	"mpquic/internal/recovery"
	"mpquic/internal/slab"
	"mpquic/internal/wire"
)

// NewConnID derives a connection ID from a seed (splitmix64 step, so
// nearby seeds give unrelated IDs).
func NewConnID(seed uint64) wire.ConnectionID {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return wire.ConnectionID(z ^ (z >> 31))
}

// Dial creates a client connection. locals are the client's interface
// addresses; remotes the known server addresses. The initial path
// (Path 0) runs locals[0] → remotes[0]; upon handshake completion the
// path manager opens one path per additional index where both a local
// interface and a remote address are known (learned via config or
// ADD_ADDRESS frames).
//
// nw is any DatagramSender: the emulated *netem.Network, or a live
// UDP driver. The secure handshake starts immediately on the initial
// path; run the clock (or the live driver's loop) to make progress.
func Dial(nw DatagramSender, cfg Config, connID wire.ConnectionID, locals, remotes []netem.Addr) *Conn {
	if len(locals) == 0 || len(remotes) == 0 {
		panic("core: Dial needs at least one local and one remote address")
	}
	c := newConn(nw, RoleClient, connID, cfg, locals, remotes, new(slab.List[recovery.SentPacket]))
	c.addPath(0, locals[0], remotes[0])
	for _, a := range locals {
		nw.Register(a, c)
	}
	c.startClientHandshake()
	return c
}

// Listener accepts (MP)QUIC connections on a set of server addresses,
// demultiplexing datagrams to connections by Connection ID.
type Listener struct {
	nw     DatagramSender
	cfg    Config
	addrs  []netem.Addr
	conns  map[wire.ConnectionID]*Conn
	onConn []func(*Conn)
	// holding lists the connections that were left owing a send by a
	// datagram delivered under More (netem.Datagram.More). The carrier
	// sees one handler, the listener, so the step's last datagram may
	// belong to another connection, or to none: release pays them all.
	holding []*Conn

	// corruptDrops counts datagrams dropped before any connection saw
	// them (unparsable header / unknown payload kind), plus the drops of
	// connections that have since closed; see Conn.CorruptDrops for the
	// per-connection counterpart.
	corruptDrops uint64
	// strayDrops counts well-formed non-handshake packets for a
	// Connection ID the listener does not (or no longer) know.
	strayDrops uint64

	// sent is the free list the path spaces of every accepted
	// connection draw their sent-packet records from, so a warm server
	// finds a window's records waiting. recycle hands a forgotten
	// connection's records back, then keeps at most sentKeep of them.
	sent slab.List[recovery.SentPacket]
	// forgotten holds the connections forgotten while HandleDatagram
	// runs (dispatching): the handler that closed one may still use its
	// spaces, so their records go back when HandleDatagram returns. A
	// close outside it (idle timeout, the application's Close) is the
	// last thing its call does, and the records go back at once.
	dispatching bool
	forgotten   []*Conn
}

// sentKeep is how many sent-packet records a listener keeps across
// connections: the records cfg.ConnWindow bytes of full-size packets
// take.
func sentKeep(cfg Config) int {
	return int((cfg.ConnWindow + wire.MaxPacketSize - 1) / wire.MaxPacketSize)
}

// Listen registers a server on the given addresses. nw is any
// DatagramSender (emulated network or live UDP driver).
func Listen(nw DatagramSender, cfg Config, addrs []netem.Addr) *Listener {
	l := &Listener{
		nw:    nw,
		cfg:   cfg,
		addrs: addrs,
		conns: make(map[wire.ConnectionID]*Conn),
	}
	for _, a := range addrs {
		nw.Register(a, l)
	}
	return l
}

// OnConnection registers a new-connection callback, invoked when the
// first handshake packet of an unknown Connection ID arrives. Callbacks
// compose: each registered callback runs, in registration order, so
// an application server (apps.NewGetServer) and an observer (e.g.
// mpq-live's connection-close tracking) can both hook the listener.
func (l *Listener) OnConnection(fn func(*Conn)) { l.onConn = append(l.onConn, fn) }

// Conns returns the accepted connections that are still open, sorted by
// Connection ID so the order is deterministic (map iteration order must
// not leak). A connection leaves the listener once it has closed and
// its OnClosed callback has run.
func (l *Listener) Conns() []*Conn {
	ids := make([]wire.ConnectionID, 0, len(l.conns))
	for id := range l.conns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*Conn, 0, len(ids))
	for _, id := range ids {
		out = append(out, l.conns[id])
	}
	return out
}

// HandleDatagram implements netem.Handler: dispatch by Connection ID.
// Only a handshake packet may create a connection: anything else for an
// unknown Connection ID is a stray — typically a late retransmission
// to a connection that already closed, which must not resurrect it —
// and is dropped and counted.
func (l *Listener) HandleDatagram(dg netem.Datagram) {
	l.dispatching = true
	l.dispatch(dg)
	if !dg.More {
		l.release()
	}
	l.dispatching = false
	l.recycle()
}

// release lets every connection left holding react, once the carrier
// delivered the listener's last datagram of the clock step.
func (l *Listener) release() {
	for i, c := range l.holding {
		l.holding[i] = nil
		c.release()
	}
	l.holding = l.holding[:0]
}

func (l *Listener) dispatch(dg netem.Datagram) {
	in := peek(dg)
	if in.corrupt {
		l.corruptDrops++
		return
	}
	c, ok := l.conns[in.hdr.ConnID]
	if !ok {
		if !in.hdr.Handshake {
			l.strayDrops++
			return
		}
		c = l.accept(in.hdr.ConnID, dg.From)
	}
	owed := c.held
	c.handle(&in)
	if c.held && !owed {
		l.holding = append(l.holding, c)
	}
}

// accept creates the server side of a new connection.
func (l *Listener) accept(cid wire.ConnectionID, from netem.Addr) *Conn {
	c := newConn(l.nw, RoleServer, cid, l.cfg, l.addrs, []netem.Addr{from}, &l.sent)
	c.acceptedBy = l
	l.conns[cid] = c
	for _, fn := range l.onConn {
		fn(c)
	}
	return c
}

// forget drops a connection that has closed and whose application has
// been told — or a long-running server keeps every connection it ever
// served. Its drop count lives on in the listener's, and its records go
// back to sent.
func (l *Listener) forget(c *Conn) {
	delete(l.conns, c.connID)
	l.corruptDrops += c.corruptDrops
	l.forgotten = append(l.forgotten, c)
	if !l.dispatching {
		l.recycle()
	}
}

// recycle hands the records of every forgotten connection's path spaces
// back to sent and leaves what sent holds beyond sentKeep to the
// collector.
func (l *Listener) recycle() {
	if len(l.forgotten) == 0 {
		return
	}
	for i, c := range l.forgotten {
		for _, p := range c.paths {
			p.space.Release()
		}
		l.forgotten[i] = nil
	}
	l.forgotten = l.forgotten[:0]
	l.sent.Shrink(sentKeep(l.cfg))
}

// CorruptDrops sums the undecodable-ingress drops across the listener
// itself and every connection it accepted, open or since closed.
func (l *Listener) CorruptDrops() uint64 {
	total := l.corruptDrops
	for _, c := range l.Conns() {
		total += c.CorruptDrops()
	}
	return total
}

// FailPathsOn relays a local socket failure to every accepted
// connection (see Conn.FailPathsOn); returns the number of paths
// newly marked potentially failed.
func (l *Listener) FailPathsOn(local netem.Addr) int {
	n := 0
	for _, c := range l.Conns() {
		n += c.FailPathsOn(local)
	}
	return n
}
