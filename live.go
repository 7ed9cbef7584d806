package mpquic

import (
	"time"

	"mpquic/internal/core"
	"mpquic/internal/live"
	"mpquic/internal/netem"
)

// Live mode: the same protocol stack over real UDP sockets and a wall
// clock (internal/live), behind the same Fabric facade as the
// emulated Network. See DESIGN.md, "Live mode".

// DefaultLiveDeadline is the wall-time budget LiveNetwork.Download
// grants a transfer before returning ErrTimeout. Live transfers cross
// real networks, so the default is minutes, not the simulator's
// effectively-unbounded virtual deadline.
const DefaultLiveDeadline = 2 * time.Minute

// LiveOption tunes a live network at construction (see NewLiveWith).
type LiveOption = live.Option

// WithCoalesce sets the live wake-up coalescing granularity: protocol
// timer wake-ups are quantized up to the next multiple of g, batching
// near-simultaneous timers into one wake-up. Zero disables
// coalescing; the default is live.DefaultCoalesce. Coalescing bounds
// timer precision (and therefore wall-derived qlog timestamps) by g —
// see OBSERVABILITY.md.
func WithCoalesce(g time.Duration) LiveOption { return live.WithCoalesce(g) }

// WithSocketBuffer requests b bytes of SO_RCVBUF and SO_SNDBUF per
// UDP socket (best-effort; the OS clamps to its limits). Zero keeps
// the OS default; unset means live.DefaultSocketBuffer. Kernel
// receive-queue overflow is surfaced via the driver's
// Stats.RcvQueueDrops.
func WithSocketBuffer(b int) LiveOption { return live.WithSocketBuffer(b) }

// UDPConn is the socket surface a live driver needs — the subset of
// *net.UDPConn it calls. Substitute implementations (fault injection,
// instrumentation) via WithSocketWrapper.
type UDPConn = live.UDPConn

// SocketWrapper intercepts every socket a live driver binds; see
// WithSocketWrapper.
type SocketWrapper = live.SocketWrapper

// WithSocketWrapper interposes w on every UDP socket the live driver
// binds — at construction and again on every rebind. The chaos
// harness wires internal/faultnet's deterministic fault injector in
// through this seam.
func WithSocketWrapper(w SocketWrapper) LiveOption { return live.WithSocketWrapper(w) }

// WithRebind sets the live driver's per-socket self-healing budget: up
// to max rebind attempts per persistent socket failure, the k-th after
// an exponential backoff of base<<min(k,6). While a socket is down its
// paths are potentially failed (§4.3) and traffic steers to the
// survivors; max <= 0 disables rebinding so a persistent error fails
// the path immediately.
func WithRebind(max int, base time.Duration) LiveOption { return live.WithRebind(max, base) }

// LiveNetwork runs MPQUIC endpoints over real UDP sockets: one socket
// per local path address, sim time mapped monotonically onto wall
// time. Unlike Network, runs are not reproducible — the kernel and
// the real network schedule the packets.
type LiveNetwork struct {
	gets
	d *live.Driver
}

// NewLive binds one UDP socket per local address ("ip:port"; port 0
// picks a free port) and returns a live network. Close it when done.
func NewLive(localAddrs ...string) (*LiveNetwork, error) {
	return NewLiveWith(localAddrs)
}

// NewLiveWith is NewLive with tuning options (WithCoalesce,
// WithSocketBuffer).
func NewLiveWith(localAddrs []string, opts ...LiveOption) (*LiveNetwork, error) {
	d, err := live.NewDriver(localAddrs, opts...)
	if err != nil {
		return nil, err
	}
	return &LiveNetwork{d: d, gets: gets{
		now:             func() time.Duration { return d.Clock().Now().Duration() },
		defaultDeadline: DefaultLiveDeadline,
		drive:           d.DriveUntil,
		wake:            d.Wake,
	}}, nil
}

// Driver exposes the underlying live driver for advanced use (stats,
// custom run loops).
func (n *LiveNetwork) Driver() *live.Driver { return n.d }

// LocalAddrs returns the actually-bound local addresses in path
// order — hand them to a remote peer's Dial.
func (n *LiveNetwork) LocalAddrs() []string {
	addrs := n.d.LocalAddrs()
	out := make([]string, len(addrs))
	for i, a := range addrs {
		out[i] = string(a)
	}
	return out
}

// liveConfig forces the settings real sockets require.
func liveConfig(cfg Config) Config {
	cfg.WireSerialization = true
	return cfg
}

// Listen starts a (MP)QUIC server on every bound local address.
func (n *LiveNetwork) Listen(cfg Config) *Listener {
	return core.Listen(n.d, liveConfig(cfg), n.d.LocalAddrs())
}

// Serve drives the server loop until Close (returns ErrClosed) or a
// socket error. Call after Listen+ServeGet.
func (n *LiveNetwork) Serve() error { return n.d.Run(nil) }

// Dial opens a client connection toward remote path addresses, one
// per bound local socket (remotes[i] pairs with local socket i as
// path i).
func (n *LiveNetwork) Dial(cfg Config, connID uint64, remotes ...string) *Conn {
	ra := make([]netem.Addr, len(remotes))
	for i, r := range remotes {
		ra[i] = netem.Addr(r)
	}
	return core.Dial(n.d, liveConfig(cfg), core.NewConnID(connID), n.d.LocalAddrs(), ra)
}

// Close shuts the sockets down; a concurrent Serve returns ErrClosed.
// Safe to call more than once.
func (n *LiveNetwork) Close() error { return n.d.Close() }
