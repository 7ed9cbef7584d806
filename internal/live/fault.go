// Live-path fault tolerance: the per-socket health ladder.
//
// Real sockets fail in ways the emulator never did: transient kernel
// errors (ENOBUFS under load), routes vanishing mid-transfer
// (EHOSTUNREACH when an interface drops), and outright socket death
// (close/EBADF when an address is torn down). The seed driver treated
// every reader error as terminal for the whole driver; this file
// replaces that with a per-path ladder:
//
//	healthy ──transient error──▶ retry in place (counted)
//	   ▲                              │ storm / persistent error
//	   │                              ▼
//	rebound ◀──bind succeeds── degraded: exponential-backoff rebind
//	                                  │ attempts exhausted
//	                                  ▼
//	                               failed (socket abandoned)
//
// While a socket is degraded the driver marks the core paths using its
// local address potentially failed (the §4.3 PF state), so the
// scheduler steers traffic onto the surviving paths — live failover is
// the same mechanism as the paper's WiFi-loss handover, triggered by a
// socket event instead of an RTO. The driver itself dies only when
// every path socket has failed (ErrAllPathsDown) or its caller's
// until/timeout budget expires.
//
// Domain split: the ladder runs in the reader goroutine that owns the
// socket (readers may block and sleep; the run loop must not). The
// reader reports transitions to the run loop as packetIn events over
// recvCh — the same sanctioned crossing ingress datagrams use — and
// the run loop folds them into Stats, traces and PF state. The active
// socket handle crosses the other way through pathSocket's atomic conn
// pointer.
package live

import (
	"errors"
	"net"
	"net/netip"
	"syscall"
	"time"

	"mpquic/internal/netem"
	"mpquic/internal/trace"
)

// UDPConn is the socket surface the driver needs: the subset of
// *net.UDPConn it calls. Tests and chaos harnesses substitute
// fault-injecting implementations via WithSocketWrapper
// (internal/faultnet's wrapper satisfies this interface structurally,
// with no import in either direction).
type UDPConn interface {
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
	WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error)
	Close() error
}

// SocketWrapper intercepts every socket the driver binds — at
// construction and again on every rebind. path is the socket's path
// index (bind order). The wrapper owns closing c if it replaces it.
type SocketWrapper func(path int, c UDPConn) UDPConn

// ErrAllPathsDown is returned by Run when every path socket has walked
// its rebind ladder to the failed state: the driver has no way left to
// move packets.
var ErrAllPathsDown = errors.New("live: all path sockets failed")

const (
	// DefaultRebindMax is the default rebind-attempt budget per
	// degraded socket (see WithRebind).
	DefaultRebindMax = 8
	// DefaultRebindBackoff is the default first-attempt rebind delay;
	// attempt k waits base<<min(k, rebindBackoffCap).
	DefaultRebindBackoff = 50 * time.Millisecond
	// rebindBackoffCap caps the backoff exponent (64× base).
	rebindBackoffCap = 6
	// transientReadLimit is how many consecutive transient read errors
	// a socket may return before the reader stops believing they are
	// transient and escalates to the rebind ladder.
	transientReadLimit = 64
)

// WithRebind sets the per-socket self-healing budget: up to max rebind
// attempts per failure, the k-th after an exponential backoff of
// base<<min(k,6). max <= 0 disables rebinding: a persistent socket
// error fails the path immediately.
func WithRebind(max int, base time.Duration) Option {
	return func(d *Driver) {
		d.rebindMax = max
		if base > 0 {
			d.rebindBase = base
		}
	}
}

// WithSocketWrapper interposes w on every socket the driver binds
// (fault injection, instrumentation). Applied at bind and at every
// rebind.
func WithSocketWrapper(w SocketWrapper) Option {
	return func(d *Driver) { d.wrap = w }
}

// WithTracer attaches a tracer to the driver itself: socket health
// transitions (SocketDegraded/SocketRebound/SocketFailed) are emitted
// here, stamped with the driver's sim clock. Protocol events keep
// flowing through the endpoint's own tracer; giving both the same
// tracer interleaves them on one timeline.
//
//mpq:confined
func WithTracer(t trace.Tracer) Option {
	return func(d *Driver) { d.tracer = t }
}

// sockEventKind tags a packetIn as either a datagram (evData) or a
// socket health transition crossing from a reader to the run loop.
type sockEventKind uint8

const (
	evData       sockEventKind = iota // a received datagram
	evTransient                       // transient read error, retried in place
	evDegraded                        // persistent failure, rebind ladder entered
	evRebindFail                      // one rebind attempt failed
	evRebound                         // rebind succeeded, socket healthy again
	evFailed                          // ladder exhausted, socket abandoned
)

// isPersistentErr classifies a socket error as unrecoverable-in-place:
// the fd is gone (closed under us, scripted kill, EBADF). Everything
// else is presumed transient and retried where it occurred.
func isPersistentErr(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.EBADF)
}

// isNoRouteErr classifies an egress error as routing loss (interface
// or route gone): the datagram is dropped like a wire would drop it,
// without indicting the socket.
func isNoRouteErr(err error) bool {
	return errors.Is(err, syscall.EHOSTUNREACH) || errors.Is(err, syscall.ENETUNREACH)
}

// closing reports whether Close has begun. Readers use it to tell a
// driver shutdown (exit quietly) from a socket dying under them (walk
// the ladder).
func (d *Driver) closing() bool {
	select {
	case <-d.closeCh:
		return true
	default:
		return false
	}
}

// postEvent hands a health transition to the run loop. Reader goroutine:
// blocking on the sanctioned recvCh crossing is the readers' job.
func (d *Driver) postEvent(p packetIn) {
	select {
	case d.recvCh <- p:
	case <-d.closeCh:
	}
}

// sleepInterruptible blocks the reader for the given backoff, giving
// up early (false) when the driver closes.
func (d *Driver) sleepInterruptible(delay time.Duration) bool {
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-d.closeCh:
		return false
	}
}

// rebindLadder walks one socket's recovery ladder in its reader
// goroutine: close the broken conn, tell the run loop the socket is
// degraded (PF steers traffic away), then retry binding under
// exponential backoff until it works, the budget runs out, or the
// driver closes. attempts persists across invocations and resets only
// on a successful read, so a flapping socket keeps escalating instead
// of resetting its ladder on every brief recovery.
//
// Each attempt binds the path's original ip:port, which preserves the
// path identity: core addresses the path by its local string, and the
// peer learns remotes per-datagram, so a successful rebind resumes the
// path in place.
func (d *Driver) rebindLadder(s *pathSocket, old UDPConn, cause error, attempts *int) (UDPConn, bool) {
	old.Close() // best-effort: the socket already failed
	d.postEvent(packetIn{s: s, kind: evDegraded, err: cause})
	for {
		if d.rebindMax <= 0 || *attempts >= d.rebindMax {
			d.postEvent(packetIn{s: s, kind: evFailed, err: cause})
			return nil, false
		}
		shift := *attempts
		if shift > rebindBackoffCap {
			shift = rebindBackoffCap
		}
		*attempts++
		if !d.sleepInterruptible(d.rebindBase << shift) {
			return nil, false
		}
		conn, _, err := listenPath(s.idx, net.UDPAddrFromAddrPort(s.ap), d.sockBuf, d.wrap)
		if err != nil {
			d.postEvent(packetIn{s: s, kind: evRebindFail, err: err})
			continue
		}
		// Publish, then re-check closing: Close may have swept the
		// sockets between the bind and the store. Both sides may close
		// the same conn; closing twice is harmless.
		s.storeConn(conn)
		if d.closing() {
			conn.Close()
			return nil, false
		}
		d.postEvent(packetIn{s: s, kind: evRebound})
		return conn, true
	}
}

// errDetail renders an event cause for traces (nil-safe).
func errDetail(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// trace emits a driver-level event on the attached tracer, stamped
// with the current sim time.
//
//mpq:confined
func (d *Driver) trace(ev trace.Event) {
	if d.tracer == nil {
		return
	}
	ev.Time = d.clock.Now().Duration()
	d.tracer.Trace(ev)
}

// failPaths relays a local socket failure into the protocol: every
// core path using the socket's local address goes potentially failed,
// so the scheduler steers traffic to surviving paths until (if ever)
// acks flow here again.
//
//go:noinline
func (d *Driver) failPaths(s *pathSocket) {
	if fp, ok := s.handler.(interface{ FailPathsOn(netem.Addr) int }); ok {
		fp.FailPathsOn(s.local)
	}
}

// allSocketsFailed reports whether every path socket has walked its
// ladder to the failed state.
func (d *Driver) allSocketsFailed() bool {
	for _, s := range d.socks {
		if !s.failed {
			return false
		}
	}
	return len(d.socks) > 0
}

// handleSockEvent folds one reader-posted health transition into
// Stats, traces and PF state. Kept out of the inliner so ingest stays
// //mpq:noescape (an inlined callee's escapes land on the call site).
//
//go:noinline
func (d *Driver) handleSockEvent(s *pathSocket, kind sockEventKind, err error) {
	switch kind {
	case evTransient:
		d.Stats.TransientReadErrs++
	case evDegraded:
		d.Stats.SocketsDegraded++
		d.trace(trace.Event{Type: trace.SocketDegraded, Path: uint8(s.idx), Detail: errDetail(err)})
		d.failPaths(s)
	case evRebindFail:
		d.Stats.RebindFailures++
	case evRebound:
		d.Stats.Rebinds++
		d.trace(trace.Event{Type: trace.SocketRebound, Path: uint8(s.idx), Detail: string(s.local)})
	case evFailed:
		d.trace(trace.Event{Type: trace.SocketFailed, Path: uint8(s.idx), Detail: errDetail(err)})
		d.failPaths(s)
		if !s.failed {
			s.failed = true
			d.Stats.PathsFailedLive++
		}
		if d.allSocketsFailed() {
			d.fatal = ErrAllPathsDown
		}
	}
}

// noteWriteErr classifies one egress write failure. Routing errors are
// wire loss (NoRoute). Persistent socket errors additionally climb a
// small per-conn counter; at the threshold the conn is closed, which
// wakes the blocked reader and hands recovery to its rebind ladder —
// the write side never rebinds, it only nudges — and the socket's paths
// go potentially failed at the end of the step (flush): a write may
// happen inside a Send, where the stack must not be re-entered. Kept
// out of the inliner so flush stays //mpq:noescape.
//
//go:noinline
func (d *Driver) noteWriteErr(s *pathSocket, err error) {
	if isNoRouteErr(err) {
		d.Stats.NoRoute++
		return
	}
	d.Stats.WriteErrors++
	if !isPersistentErr(err) {
		return
	}
	s.writeFails++
	if s.writeFails == writeFailThreshold {
		s.loadConn().Close()
		s.writeFailed = true
	}
}

// writeFailThreshold is how many consecutive persistent write errors
// one conn absorbs before the run loop closes it to force the reader's
// ladder.
const writeFailThreshold = 3
