package live

import (
	"net"
	"net/netip"
	"sync/atomic"

	"mpquic/internal/netem"
)

// connBox wraps the active socket handle so it can sit behind an
// atomic pointer (atomic.Pointer needs a concrete pointee; UDPConn is
// an interface).
type connBox struct{ c UDPConn }

// pathSocket is one bound UDP socket slot: the real-world incarnation
// of a local path address, and the one record of everything the driver
// knows about it. The slot outlives any single socket — a reader's
// rebind ladder may replace the conn — but the identity (idx, local,
// ap) is fixed at bind time, which is what keeps the driver's socks
// slice immutable after construction.
//
// The reader goroutine that owns the slot touches only the identity
// and the atomic conn; the rest is the run loop's.
type pathSocket struct {
	// conn is the active socket, swapped atomically by the owning
	// reader's rebind ladder and read by the run loop's writes: a
	// crossing between the two goroutines.
	conn  atomic.Pointer[connBox]
	idx   int            // path index (bind order): names the socket in traces and fault scripts
	local netem.Addr     // the actually-bound "ip:port", the path identity
	ap    netip.AddrPort // the same address as a value, for /proc matching and rebinding
	// free holds the slot's ingress run buffers nobody holds: its
	// reader takes them, and the last hand-back returns them (runbuf.go).
	free chan *runBuf

	// handler receives the socket's ingress (nil until Register).
	//mpq:confined
	handler netem.Handler
	// failed marks a socket whose rebind ladder is exhausted.
	//mpq:confined
	failed bool
	// writeFails counts consecutive persistent write errors on the
	// conn the writer is bound to.
	//mpq:confined
	writeFails int
	// writeFailed marks a conn closed for failing writes whose paths
	// flush has yet to fail.
	//mpq:confined
	writeFailed bool
	// w is the socket's binding to the batched write path and out the
	// datagrams queued for its next write (egress.go).
	//mpq:confined
	w sockWriter
	//mpq:confined
	out egressBatch
	// peerName and peerAP cache the last destination the socket
	// resolved: a path socket sends to one peer, mostly.
	//mpq:confined
	peerName netem.Addr
	//mpq:confined
	peerAP netip.AddrPort
}

// loadConn returns the active socket.
func (s *pathSocket) loadConn() UDPConn { return s.conn.Load().c }

// storeConn publishes a replacement socket.
func (s *pathSocket) storeConn(c UDPConn) { s.conn.Store(&connBox{c: c}) }

// listenPath opens the UDP socket of path idx on addr and returns it
// with the address the kernel bound. It is the one place a path socket
// is opened: at construction and on every rebind. sockBuf is the
// SO_RCVBUF/SO_SNDBUF request; wrap, when non-nil, interposes on the
// socket (fault injection). A socket left unwrapped gets UDP_GRO,
// because the driver's own reader reads runs (readRun).
func listenPath(idx int, addr *net.UDPAddr, sockBuf int, wrap SocketWrapper) (UDPConn, netip.AddrPort, error) {
	pc, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, netip.AddrPort{}, err
	}
	// Deep socket buffers: the driver drains sockets in batches between
	// protocol events, so the kernel queue is the only thing standing
	// between a burst and loss. Best-effort — the OS clamps to its
	// limits. Overflow shows up in Stats.RcvQueueDrops.
	if sockBuf > 0 {
		pc.SetReadBuffer(sockBuf)
		pc.SetWriteBuffer(sockBuf)
	}
	lap := pc.LocalAddr().(*net.UDPAddr).AddrPort()
	lap = netip.AddrPortFrom(lap.Addr().Unmap(), lap.Port())
	if wrap != nil {
		return wrap(idx, pc), lap, nil
	}
	// Receive offload only where the driver's own reader reads the
	// socket: a wrapper reads into one netem.MTU-byte window, which a
	// run would overflow.
	enableGRO(pc)
	return pc, lap, nil
}

// remoteAddrPort resolves a remote path address, caching the result
// (egress runs per packet; resolution must not, and the cached value
// type keeps the hot path allocation-free).
func (d *Driver) remoteAddrPort(addr netem.Addr) (netip.AddrPort, bool) {
	if ap, ok := d.remotes[addr]; ok {
		return ap, ok
	}
	ua, err := net.ResolveUDPAddr("udp", string(addr))
	if err != nil {
		return netip.AddrPort{}, false
	}
	ap := ua.AddrPort()
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	d.remotes[addr] = ap
	return ap, true
}

// peer resolves the destination to for a datagram from s, through the
// socket's one-entry cache.
//
//mpq:noescape
func (d *Driver) peer(s *pathSocket, to netem.Addr) (netip.AddrPort, bool) {
	if to == s.peerName && to != "" {
		return s.peerAP, true
	}
	ap, ok := d.remoteAddrPort(to)
	if ok {
		s.peerName, s.peerAP = to, ap
	}
	return ap, ok
}

// closeSockets closes every slot's active socket, unblocking reader
// loops. A reader mid-rebind may store a fresh conn concurrently; the
// ladder re-checks the close flag after publishing and closes its own
// conn then, so every socket is closed by at least one side.
func (d *Driver) closeSockets() {
	for _, s := range d.socks {
		s.loadConn().Close()
	}
}
