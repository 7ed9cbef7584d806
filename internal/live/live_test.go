package live_test

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/core"
	"mpquic/internal/live"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
)

// newDriver binds a live driver on n loopback sockets, skipping the
// test cleanly when the sandbox denies UDP sockets.
func newDriver(t *testing.T, n int) *live.Driver {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	d, err := live.NewDriver(addrs)
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

// liveConfig returns a core config fit for real sockets: wire
// serialization (bytes on the wire), real AEAD, and a short idle
// timeout so broken tests fail fast instead of hanging.
func liveConfig(nPaths int) core.Config {
	cfg := core.DefaultConfig()
	if nPaths == 1 {
		cfg = core.DefaultSinglePathConfig()
	}
	cfg.MaxPaths = nPaths
	cfg.WireSerialization = true
	cfg.EnableCrypto = true
	cfg.IdleTimeout = 5 * time.Second
	return cfg
}

// startGetServer runs a live GET server on n loopback paths in a
// background goroutine until the test ends.
func startGetServer(t *testing.T, nPaths int) *live.Driver {
	t.Helper()
	d := newDriver(t, nPaths)
	lis := core.Listen(d, liveConfig(nPaths), d.LocalAddrs())
	apps.NewGetServer(lis)
	go d.Run(nil) // runs until Close (test cleanup)
	return d
}

// dial opens a live client toward the server driver's addresses.
func dial(t *testing.T, server *live.Driver, nPaths int, connID uint64) (*live.Driver, *core.Conn) {
	t.Helper()
	d := newDriver(t, nPaths)
	locals := d.LocalAddrs()
	remotes := server.LocalAddrs()
	conn := core.Dial(d, liveConfig(nPaths), core.NewConnID(connID), locals, remotes)
	return d, conn
}

func TestSinglePathTransfer(t *testing.T) {
	server := startGetServer(t, 1)
	client, conn := dial(t, server, 1, 1)

	const size = 256 << 10
	res, err := live.Download(client, conn, size, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != size {
		t.Fatalf("Size = %d, want %d", res.Size, size)
	}
	if res.Elapsed() <= 0 {
		t.Fatalf("non-positive elapsed %v", res.Elapsed())
	}
	if res.HandshakeDone <= 0 || res.HandshakeDone > res.Finish {
		t.Fatalf("handshake time %v outside (0, %v]", res.HandshakeDone, res.Finish)
	}
	if got := conn.Stats.BytesReceived; got < size {
		t.Fatalf("BytesReceived = %d, want >= %d", got, size)
	}
	if len(conn.Paths()) != 1 {
		t.Fatalf("paths = %d, want 1", len(conn.Paths()))
	}
}

func TestTwoPathTransfer(t *testing.T) {
	server := startGetServer(t, 2)
	client, conn := dial(t, server, 2, 2)

	const size = 2 << 20
	res, err := live.Download(client, conn, size, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != size {
		t.Fatalf("Size = %d, want %d", res.Size, size)
	}
	paths := conn.Paths()
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(paths))
	}
	var total uint64
	for _, p := range paths {
		if p.RecvBytes == 0 {
			t.Errorf("path %d received no bytes: the transfer did not use both paths", p.ID)
		}
		total += p.RecvBytes
	}
	if total < size {
		t.Fatalf("per-path bytes sum %d < size %d", total, size)
	}
	// Aggregate throughput necessarily exceeds the best single path's
	// contribution on the same run when both paths carried data.
	best := paths[0].RecvBytes
	if paths[1].RecvBytes > best {
		best = paths[1].RecvBytes
	}
	if best >= total {
		t.Fatalf("one path carried everything (%d of %d bytes)", best, total)
	}
}

// TestSequentialDownloadsSameConn reuses one connection for several
// GETs (each on a fresh stream), as a request train would.
func TestSequentialDownloadsSameConn(t *testing.T) {
	server := startGetServer(t, 1)
	client, conn := dial(t, server, 1, 3)

	for i := 0; i < 3; i++ {
		res, err := live.Download(client, conn, 64<<10, 10*time.Second)
		if err != nil {
			t.Fatalf("download %d: %v", i, err)
		}
		if res.Size != 64<<10 {
			t.Fatalf("download %d: size %d", i, res.Size)
		}
	}
}

// TestDownloadDeadlineDisarmedOnReturn: a finished GET leaves nothing
// armed on the driver's clock, so a driver reused for the next transfer
// does not wake for the last one's deadline.
func TestDownloadDeadlineDisarmedOnReturn(t *testing.T) {
	server := startGetServer(t, 1)
	client, conn := dial(t, server, 1, 4)
	if _, err := live.Download(client, conn, 64<<10, time.Hour); err != nil {
		t.Fatal(err)
	}
	conn.Close() // stops the connection's own timer
	if dl := client.Clock().NextDeadline(); dl != sim.Never {
		t.Fatalf("clock still has an event at %v after the download returned", dl.Duration())
	}
}

// TestClientRestart closes a client driver mid-life and connects a
// fresh one to the same server: the listener must accept the new
// connection ID and serve it.
func TestClientRestart(t *testing.T) {
	server := startGetServer(t, 1)

	c1, conn1 := dial(t, server, 1, 10)
	if _, err := live.Download(c1, conn1, 64<<10, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	c2, conn2 := dial(t, server, 1, 11)
	res, err := live.Download(c2, conn2, 64<<10, 10*time.Second)
	if err != nil {
		t.Fatalf("restarted client: %v", err)
	}
	if res.Size != 64<<10 {
		t.Fatalf("restarted client size = %d", res.Size)
	}
}

// TestServerAbortTypedError runs against a server that closes the
// connection instead of serving: the client's Download must surface a
// typed *apps.AbortError carrying the close reason.
func TestServerAbortTypedError(t *testing.T) {
	sd := newDriver(t, 1)
	lis := core.Listen(sd, liveConfig(1), sd.LocalAddrs())
	lis.OnConnection(func(c *core.Conn) {
		c.OnStreamOpen(func(*core.Stream) { c.Close() })
	})
	go sd.Run(nil)

	client, conn := dial(t, sd, 1, 20)
	_, err := live.Download(client, conn, 1<<20, 10*time.Second)
	var abort *apps.AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("err = %v (%T), want *apps.AbortError", err, err)
	}
	if abort.Err == nil || !strings.Contains(abort.Err.Error(), "closed by peer") {
		t.Fatalf("abort reason = %v, want peer close", abort.Err)
	}
}

// TestDeadline dials a port nobody listens on: the handshake can
// never complete and the wall deadline must fire as a typed
// ErrTimeout.
func TestDeadline(t *testing.T) {
	// Bind-and-close to find a dead loopback port.
	dead := newDriver(t, 1)
	addr := dead.LocalAddrs()[0]
	dead.Close()

	client := newDriver(t, 1)
	conn := core.Dial(client, liveConfig(1), core.NewConnID(21), client.LocalAddrs(), []netem.Addr{addr})
	start := time.Now()
	_, err := live.Download(client, conn, 1<<20, 300*time.Millisecond)
	if !errors.Is(err, apps.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if el := time.Since(start); el < 250*time.Millisecond || el > 5*time.Second {
		t.Fatalf("deadline honored after %v, want ~300ms", el)
	}
}

// TestRaceConcurrentClients is the -race stress test: two independent
// client drivers (each with two reader goroutines) hammer one shared
// two-path server concurrently, several transfers each.
func TestRaceConcurrentClients(t *testing.T) {
	server := startGetServer(t, 2)

	const clients = 2
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		// Bind and dial on the test goroutine (newDriver may skip or
		// fail the test); only the transfer loop runs concurrently.
		d := newDriver(t, 2)
		conn := core.Dial(d, liveConfig(2), core.NewConnID(100+uint64(i)), d.LocalAddrs(), server.LocalAddrs())
		wg.Add(1)
		go func(id int, d *live.Driver, conn *core.Conn) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := live.Download(d, conn, 128<<10, 20*time.Second); err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", id, r, err)
					return
				}
			}
		}(i, d, conn)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCloseUnblocksRun proves Close from another goroutine tears down
// a Run blocked with no armed deadline (server mode) and returns
// ErrClosed.
func TestCloseUnblocksRun(t *testing.T) {
	d := newDriver(t, 1)
	done := make(chan error, 1)
	go func() { done <- d.Run(nil) }()
	time.Sleep(50 * time.Millisecond)
	d.Close()
	select {
	case err := <-done:
		if !errors.Is(err, live.ErrClosed) {
			t.Fatalf("Run returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Close")
	}
}

// TestStructModePayloadRejected proves the driver refuses endpoints
// that forgot WireSerialization instead of silently moving nothing.
func TestStructModePayloadRejected(t *testing.T) {
	server := startGetServer(t, 1)
	d := newDriver(t, 1)
	cfg := liveConfig(1)
	cfg.WireSerialization = false // the misconfiguration under test
	conn := core.Dial(d, cfg, core.NewConnID(30), d.LocalAddrs(), server.LocalAddrs())
	_, err := live.Download(d, conn, 1<<10, 2*time.Second)
	if err == nil || !strings.Contains(err.Error(), "WireSerialization") {
		t.Fatalf("err = %v, want WireSerialization guidance", err)
	}
}
