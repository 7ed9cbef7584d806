package live_test

// Adversarial socket-fault tests: the live analog of the simulator's
// Fig. 11 handover experiments, driven by internal/faultnet instead of
// emulated link scripts. Each test injects a deterministic fault
// pattern into the client's sockets and asserts the driver's health
// ladder (internal/live/fault.go) keeps the transfer — or fails it in
// exactly the typed way the ladder promises.

import (
	"errors"
	"net/netip"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/core"
	"mpquic/internal/faultnet"
	"mpquic/internal/live"
	"mpquic/internal/trace"
)

// newChaosDriver is newDriver with driver options (fault wrappers,
// rebind budgets, tracers).
func newChaosDriver(t *testing.T, n int, opts ...live.Option) *live.Driver {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	d, err := live.NewDriver(addrs, opts...)
	if err != nil {
		if errors.Is(err, os.ErrPermission) || strings.Contains(err.Error(), "not permitted") ||
			strings.Contains(err.Error(), "permission denied") {
			t.Skipf("UDP sockets unavailable in this sandbox: %v", err)
		}
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// dialOn opens a client connection over an existing chaos driver.
func dialOn(t *testing.T, d *live.Driver, server *live.Driver, nPaths int, connID uint64) *core.Conn {
	t.Helper()
	return core.Dial(d, liveConfig(nPaths), core.NewConnID(connID), d.LocalAddrs(), server.LocalAddrs())
}

// wallClock returns a faultnet clock anchored at the call.
func wallClock() faultnet.Clock {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// injectorWrapper adapts a faultnet injector to live.WithSocketWrapper.
func injectorWrapper(inj *faultnet.Injector) live.Option {
	return live.WithSocketWrapper(func(path int, c live.UDPConn) live.UDPConn {
		return inj.Wrap(path, c)
	})
}

// eventCollector records driver trace events (driven from the test
// goroutine inside DownloadWith, so no locking needed).
type eventCollector struct{ types []trace.EventType }

func (ec *eventCollector) Trace(ev trace.Event) { ec.types = append(ec.types, ev.Type) }

func (ec *eventCollector) count(t trace.EventType) int {
	n := 0
	for _, et := range ec.types {
		if et == t {
			n++
		}
	}
	return n
}

// flakyConn returns exactly one injected transient read error, then
// delegates — the minimal reproduction of the seed bug where any
// reader error killed the whole driver.
type flakyConn struct {
	live.UDPConn
	errsLeft atomic.Int32
}

func (c *flakyConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	if c.errsLeft.Add(-1) >= 0 {
		return 0, netip.AddrPort{}, os.NewSyscallError("recvfrom", syscall.ENOBUFS)
	}
	return c.UDPConn.ReadFromUDPAddrPort(b)
}

// TestTransientReadErrorDoesNotKillDriver is the satellite regression
// test: one injected ENOBUFS on the client's socket used to be
// terminal for the driver; now it is retried in place and counted.
func TestTransientReadErrorDoesNotKillDriver(t *testing.T) {
	server := startGetServer(t, 1)
	client := newChaosDriver(t, 1, live.WithSocketWrapper(func(path int, c live.UDPConn) live.UDPConn {
		fc := &flakyConn{UDPConn: c}
		fc.errsLeft.Store(1)
		return fc
	}))
	conn := dialOn(t, client, server, 1, 40)

	res, err := live.Download(client, conn, 256<<10, 20*time.Second)
	if err != nil {
		t.Fatalf("one transient read error killed the transfer: %v", err)
	}
	if res.Size != 256<<10 {
		t.Fatalf("Size = %d", res.Size)
	}
	if client.Stats.TransientReadErrs == 0 {
		t.Fatalf("TransientReadErrs = 0, want the injected error counted")
	}
	if client.Stats.PathsFailedLive != 0 || client.Stats.Rebinds != 0 {
		t.Fatalf("transient error escalated: %+v", client.Stats)
	}
}

// TestCorruptFloodCountedNotFatal runs a transfer with 5%% of ingress
// datagrams bit-flipped: every corrupted packet must be dropped and
// counted (AEAD or header rejection), never panic or kill the driver.
func TestCorruptFloodCountedNotFatal(t *testing.T) {
	server := startGetServer(t, 1)
	inj := faultnet.New(42, faultnet.WithRates(faultnet.Rates{Corrupt: 0.05}))
	client := newChaosDriver(t, 1, injectorWrapper(inj))
	conn := dialOn(t, client, server, 1, 41)

	res, err := live.Download(client, conn, 1<<20, 30*time.Second)
	if err != nil {
		t.Fatalf("corrupt flood killed the transfer: %v", err)
	}
	if res.Size != 1<<20 {
		t.Fatalf("Size = %d", res.Size)
	}
	if client.Stats.CorruptDrops == 0 {
		t.Fatalf("CorruptDrops = 0 after a 5%% corrupt flood; Stats = %+v", client.Stats)
	}
}

// TestTransientErrorStorm pushes 20%% transient read and write error
// rates through a transfer: the ladder must absorb all of it without a
// single rebind or path failure.
func TestTransientErrorStorm(t *testing.T) {
	server := startGetServer(t, 1)
	inj := faultnet.New(7, faultnet.WithRates(faultnet.Rates{ReadErr: 0.2, WriteErr: 0.2}))
	client := newChaosDriver(t, 1, injectorWrapper(inj))
	conn := dialOn(t, client, server, 1, 42)

	res, err := live.Download(client, conn, 512<<10, 30*time.Second)
	if err != nil {
		t.Fatalf("transient storm killed the transfer: %v", err)
	}
	if res.Size != 512<<10 {
		t.Fatalf("Size = %d", res.Size)
	}
	if client.Stats.TransientReadErrs == 0 {
		t.Fatalf("TransientReadErrs = 0 under a 20%% read-error storm")
	}
	if client.Stats.WriteErrors == 0 && client.Stats.NoRoute == 0 {
		t.Fatalf("no write-side faults surfaced under a 20%% write-error storm: %+v", client.Stats)
	}
	if client.Stats.PathsFailedLive != 0 {
		t.Fatalf("transient storm failed a path: %+v", client.Stats)
	}
}

// TestSocketDeathFailsOverMidTransfer is the live Fig. 11 analog: a
// two-path transfer loses one socket permanently mid-flight. The
// transfer must complete over the survivor, with the dead path marked
// failed and the socket lifecycle traced.
func TestSocketDeathFailsOverMidTransfer(t *testing.T) {
	server := startGetServer(t, 2)
	inj := faultnet.New(11,
		faultnet.WithClock(wallClock()),
		faultnet.WithScript(faultnet.KillAt(1, 60*time.Millisecond)))
	var ec eventCollector
	client := newChaosDriver(t, 2,
		injectorWrapper(inj),
		live.WithRebind(2, 30*time.Millisecond),
		live.WithTracer(&ec))
	conn := dialOn(t, client, server, 2, 43)

	const size = 32 << 20
	res, err := live.Download(client, conn, size, 60*time.Second)
	if err != nil {
		t.Fatalf("transfer did not survive losing 1 of 2 sockets: %v", err)
	}
	if res.Size != size {
		t.Fatalf("Size = %d", res.Size)
	}
	if client.Stats.PathsFailedLive != 1 {
		t.Fatalf("PathsFailedLive = %d, want 1; Stats = %+v", client.Stats.PathsFailedLive, client.Stats)
	}
	if client.Stats.SocketsDegraded == 0 {
		t.Fatalf("SocketsDegraded = 0, want the kill surfaced")
	}
	if ec.count(trace.SocketDegraded) == 0 || ec.count(trace.SocketFailed) == 0 {
		t.Fatalf("socket lifecycle not traced: %v", ec.types)
	}
	// The §4.3 failover marker: the dead socket's path went PF. Only
	// that path is asserted — the survivor may itself be PF for a
	// moment after an RTO when the run ends.
	dead, found := client.LocalAddrs()[1], false // KillAt(1, ...) above
	for _, p := range conn.Paths() {
		if p.Local != dead {
			continue
		}
		found = true
		if !p.PotentiallyFailed() {
			t.Fatalf("path %d on the killed socket %s is not potentially failed", p.ID, dead)
		}
	}
	if !found {
		t.Fatalf("no path is bound to the killed socket %s", dead)
	}
}

// TestAllSocketsDeadReturnsErrAllPathsDown kills both sockets of a
// two-path transfer: with the ladders exhausted the driver must die
// with the typed ErrAllPathsDown, not hang until the deadline.
func TestAllSocketsDeadReturnsErrAllPathsDown(t *testing.T) {
	server := startGetServer(t, 2)
	inj := faultnet.New(13,
		faultnet.WithClock(wallClock()),
		faultnet.WithScript(faultnet.KillAt(0, 40*time.Millisecond).And(faultnet.KillAt(1, 50*time.Millisecond))))
	client := newChaosDriver(t, 2,
		injectorWrapper(inj),
		live.WithRebind(1, 10*time.Millisecond))
	conn := dialOn(t, client, server, 2, 44)

	start := time.Now()
	_, err := live.Download(client, conn, 32<<20, 30*time.Second)
	if !errors.Is(err, live.ErrAllPathsDown) {
		t.Fatalf("err = %v, want ErrAllPathsDown", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("all-paths-down detection took %v", el)
	}
	if client.Stats.PathsFailedLive != 2 {
		t.Fatalf("PathsFailedLive = %d, want 2", client.Stats.PathsFailedLive)
	}
}

// TestHandshakeUnderBlackhole blackholes the only path from t=0: the
// handshake can never complete, the sockets never *fail* (a blackhole
// is silence, not an error), and the download must end with its own
// deadline as ErrTimeout.
func TestHandshakeUnderBlackhole(t *testing.T) {
	server := startGetServer(t, 1)
	inj := faultnet.New(17,
		faultnet.WithClock(wallClock()),
		faultnet.WithScript(faultnet.Blackhole(0, 0, 0)))
	client := newChaosDriver(t, 1, injectorWrapper(inj))
	conn := dialOn(t, client, server, 1, 45)

	_, err := live.Download(client, conn, 1<<20, 500*time.Millisecond)
	if !errors.Is(err, apps.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if client.Stats.PathsFailedLive != 0 {
		t.Fatalf("a blackhole must not fail the socket: %+v", client.Stats)
	}
}

// TestKillAndRestoreRebinds scripts an outage window on the only
// socket: killed at 60ms, bindable again from 250ms. The reader's
// ladder must retry under backoff through the outage, rebind when the
// window closes, and the transfer must complete on the healed socket.
func TestKillAndRestoreRebinds(t *testing.T) {
	server := startGetServer(t, 1)
	inj := faultnet.New(19,
		faultnet.WithClock(wallClock()),
		faultnet.WithScript(faultnet.KillAt(0, 60*time.Millisecond).And(faultnet.RestoreAt(0, 250*time.Millisecond))))
	var ec eventCollector
	client := newChaosDriver(t, 1,
		injectorWrapper(inj),
		live.WithRebind(20, 50*time.Millisecond),
		live.WithTracer(&ec))
	conn := dialOn(t, client, server, 1, 46)

	const size = 32 << 20
	res, err := live.Download(client, conn, size, 60*time.Second)
	if err != nil {
		t.Fatalf("transfer did not survive the kill/restore outage: %v", err)
	}
	if res.Size != size {
		t.Fatalf("Size = %d", res.Size)
	}
	if client.Stats.Rebinds == 0 {
		t.Fatalf("Rebinds = 0, want self-healing through the outage; Stats = %+v", client.Stats)
	}
	if client.Stats.PathsFailedLive != 0 {
		t.Fatalf("the healed socket was marked failed: %+v", client.Stats)
	}
	if ec.count(trace.SocketDegraded) == 0 || ec.count(trace.SocketRebound) == 0 {
		t.Fatalf("rebind lifecycle not traced: %v", ec.types)
	}
}
