package live

import (
	"fmt"
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
// of a local path address. The slot outlives any single socket — a
// reader's rebind ladder may replace the conn — but the identity
// (idx, local, ap) is fixed at bind time, which is what keeps the
// binder's socks slice and byLocal map immutable after construction.
type pathSocket struct {
	// conn is the active socket, swapped atomically by the owning
	// reader's rebind ladder and read by the run loop's flush: a
	// crossing between the two domains.
	conn  atomic.Pointer[connBox]
	idx   int            // path index (bind order): names the socket in traces and fault scripts
	local netem.Addr     // the actually-bound "ip:port", the path identity
	ap    netip.AddrPort // the same address as a value, for /proc matching and rebinding
}

// loadConn returns the active socket.
func (s *pathSocket) loadConn() UDPConn { return s.conn.Load().c }

// storeConn publishes a replacement socket.
func (s *pathSocket) storeConn(c UDPConn) { s.conn.Store(&connBox{c: c}) }

// PathBinder maps the address identities the core stack uses for its
// paths onto real UDP endpoints. Core identifies a path by its
// (local, remote) netem.Addr pair; in live mode those strings are
// literal "ip:port" addresses, so the binder resolves:
//
//   - local netem.Addr → the pathSocket slot that owns it (egress
//     socket selection, one socket per local interface address);
//   - remote netem.Addr → a resolved netip.AddrPort (egress
//     destination), cached after the first lookup so the per-packet
//     egress path allocates nothing.
//
// Path IDs map through position: core.Dial pairs locals[i] with
// remotes[i] as path i, and Locals() preserves the order the sockets
// were bound in, so index i of the binder is the local endpoint of
// path i (the paper's WiFi+LTE dual-homing is two loopback ports in
// the tests). Servers need no remote table up front: remotes are
// learned per-datagram from the ingress source address.
//
// The socks slice and byLocal map never mutate after construction
// (rebinds swap a slot's conn pointer, not the slot); the remotes
// cache is driver-goroutine-only (reader goroutines touch only the
// slots' atomic conn).
type PathBinder struct {
	socks   []*pathSocket
	byLocal map[netem.Addr]*pathSocket
	remotes map[netem.Addr]netip.AddrPort
	sockBuf int
}

// newPathBinder binds one UDP socket per local address. Addresses may
// use port 0; the kernel-assigned port becomes part of the path
// identity (see Locals). sockBuf is the SO_RCVBUF/SO_SNDBUF request
// per socket. wrap, when non-nil, interposes on every bound socket
// (fault injection). On error, already-bound sockets are closed.
func newPathBinder(localAddrs []string, sockBuf int, wrap SocketWrapper) (*PathBinder, error) {
	if len(localAddrs) == 0 {
		return nil, fmt.Errorf("live: need at least one local address")
	}
	b := &PathBinder{
		byLocal: make(map[netem.Addr]*pathSocket, len(localAddrs)),
		remotes: make(map[netem.Addr]netip.AddrPort),
		sockBuf: sockBuf,
	}
	for i, a := range localAddrs {
		ua, err := net.ResolveUDPAddr("udp", a)
		if err == nil && ua.IP == nil {
			// A wildcard bind would make the local path identity
			// ambiguous (the From address core stamps on egress must
			// name one socket).
			err = fmt.Errorf("wildcard address not allowed; bind an explicit IP")
		}
		var pc *net.UDPConn
		if err == nil {
			pc, err = net.ListenUDP("udp", ua)
		}
		if err != nil {
			b.closeSockets()
			return nil, fmt.Errorf("live: bind %s: %w", a, err)
		}
		// Deep socket buffers: the driver drains sockets in batches
		// between protocol events, so the kernel queue is the only
		// thing standing between a burst and loss. Best-effort — the
		// OS clamps to its limits. Overflow shows up in
		// Stats.RcvQueueDrops.
		if sockBuf > 0 {
			pc.SetReadBuffer(sockBuf)
			pc.SetWriteBuffer(sockBuf)
		}
		lap := pc.LocalAddr().(*net.UDPAddr).AddrPort()
		lap = netip.AddrPortFrom(lap.Addr().Unmap(), lap.Port())
		s := &pathSocket{idx: i, local: netem.Addr(lap.String()), ap: lap}
		var c UDPConn = pc
		if wrap != nil {
			c = wrap(i, pc)
		}
		s.storeConn(c)
		b.socks = append(b.socks, s)
		b.byLocal[s.local] = s
	}
	return b, nil
}

// Locals returns the actually-bound local addresses in bind order:
// index i is the local endpoint of path i. Pass this slice to
// core.Dial/core.Listen so the path identities match the sockets.
func (b *PathBinder) Locals() []netem.Addr {
	out := make([]netem.Addr, len(b.socks))
	for i, s := range b.socks {
		out[i] = s.local
	}
	return out
}

// socketFor returns the socket slot owning a local address, or nil.
func (b *PathBinder) socketFor(local netem.Addr) *pathSocket {
	return b.byLocal[local]
}

// remoteAddrPort resolves a remote path address, caching the result
// (egress runs per packet; resolution must not, and the cached value
// type keeps the hot path allocation-free).
func (b *PathBinder) remoteAddrPort(addr netem.Addr) (netip.AddrPort, bool) {
	if ap, ok := b.remotes[addr]; ok {
		return ap, ok
	}
	ua, err := net.ResolveUDPAddr("udp", string(addr))
	if err != nil {
		return netip.AddrPort{}, false
	}
	ap := ua.AddrPort()
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	b.remotes[addr] = ap
	return ap, true
}

// kernelDrops sums the kernel receive-queue overflow counters of every
// bound socket (see sockstats.go); zero where unavailable.
func (b *PathBinder) kernelDrops() uint64 {
	var total uint64
	for _, s := range b.socks {
		total += procUDPDrops(s.ap)
	}
	return total
}

// closeSockets closes every slot's active socket, unblocking reader
// loops. A reader mid-rebind may store a fresh conn concurrently; the
// ladder re-checks the close flag after publishing and closes its own
// conn then, so every socket is closed by at least one side.
func (b *PathBinder) closeSockets() {
	for _, s := range b.socks {
		s.loadConn().Close()
	}
}
