package mpquic_test

import (
	"errors"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"mpquic"
	"mpquic/internal/perf"
)

// newLive binds a facade live network on n loopback sockets, skipping
// cleanly when the sandbox denies UDP.
func newLive(t *testing.T, n int) *mpquic.LiveNetwork {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	ln, err := mpquic.NewLiveWith(addrs)
	if err != nil {
		if errors.Is(err, os.ErrPermission) || strings.Contains(err.Error(), "not permitted") ||
			strings.Contains(err.Error(), "permission denied") {
			t.Skipf("UDP sockets unavailable in this sandbox: %v", err)
		}
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// TestLiveFacadeTwoPathDownload exercises the facade's live entry
// points end to end: a two-path server, a two-path client, and a GET
// that must use both paths.
func TestLiveFacadeTwoPathDownload(t *testing.T) {
	cfg := mpquic.DefaultConfig()
	cfg.EnableCrypto = true
	cfg.IdleTimeout = 5 * time.Second

	server := newLive(t, 2)
	lis := server.Listen(cfg)
	server.ServeGet(lis)
	go server.Serve()

	client := newLive(t, 2)
	conn := client.Dial(cfg, 7, server.LocalAddrs()...)
	const size = 1 << 20
	res, err := client.DownloadWith(conn, size, mpquic.DownloadOpts{Deadline: 20 * time.Second})
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
	for _, p := range paths {
		if p.RecvBytes == 0 {
			t.Errorf("path %d carried nothing", p.ID)
		}
	}
}

// TestLiveFreshGetAllocsPerPacket pins what a fresh connection costs the
// heap on the path mpq-live takes: a two-path 10 MiB GET over loopback,
// server and client in one process, from binding the client's sockets to
// closing them, allocates at most 0.1 times per packet the client
// received (both sides' allocations counted). The server's first window
// holds about half the transfer, and its in-flight records once cost an
// allocation each, about 0.55 per packet; they come in slabs now, and
// the GET read about 0.12, much of it pooled datagram buffers, which
// both directions drew one per datagram. The driver encodes and reads
// into run buffers the warm-up GET's drivers left on a free list now,
// and the GET reads about 0.05 (0.046–0.075 over 15 runs on 2 cores).
// The client's
// reassembly chunks come from a pool the warm-up GET filled, but a GET
// whose reordering span is larger than the warm-up's takes the
// difference as new chunks, one allocation per 16 KiB: the budget
// leaves room for that.
func TestLiveFreshGetAllocsPerPacket(t *testing.T) {
	if testing.Short() {
		t.Skip("moves 20 MiB over loopback")
	}
	if perf.RaceEnabled {
		// sync.Pool drops a quarter of the buffers put back, on purpose,
		// which costs about 0.5 per packet by itself.
		t.Skip("measures allocations, which -race adds to")
	}
	const budget = 0.1
	cfg := mpquic.DefaultConfig()
	cfg.EnableCrypto = true
	cfg.IdleTimeout = 5 * time.Second

	server := newLive(t, 2)
	lis := server.Listen(cfg)
	server.ServeGet(lis)
	go server.Serve()

	get := func(id, size uint64) uint64 {
		client := newLive(t, 2)
		defer client.Close()
		conn := client.Dial(cfg, id, server.LocalAddrs()...)
		res, err := client.DownloadWith(conn, size, mpquic.DownloadOpts{Deadline: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if res.Size != size {
			t.Fatalf("Size = %d, want %d", res.Size, size)
		}
		return conn.Stats.PacketsReceived
	}
	// With the collector off, sync.Pool keeps what it holds: a pool
	// refilled after a collection is not the connection's cost.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	get(1, 10<<20) // the buffer pools grow to what such a GET holds at its peak
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pkts := get(2, 10<<20)
	runtime.ReadMemStats(&after)
	perPkt := float64(after.Mallocs-before.Mallocs) / float64(pkts)
	t.Logf("%.3f mallocs per received packet (%d packets)", perPkt, pkts)
	if perPkt > budget {
		t.Errorf("a fresh two-path GET allocates %.3f per received packet, budget %v", perPkt, budget)
	}
}

// TestLiveWarmServerAllocBytes pins what a warm server's next
// connection costs the heap in bytes: once a first two-path 10 MiB GET
// has been served and closed, a later one, server and client in one
// process, allocates at most 30 bytes per packet the client received
// (both sides counted, the GC off as above). It reads 9–19, median
// about 13, over 40 runs on 2 cores. The server's sent-packet records
// once came from fresh slabs for every connection, and it read about
// 160; the connections a listener accepts draw them from one free list
// now, which the first connection filled and gave back when its client
// closed it, and it read about 35. The arrays that list those records
// go back with them now, and each fresh client driver once allocated a
// 1024-datagram reader queue and pooled datagram buffers; it takes run
// buffers from a free list and queues reads. It runs on every P: a
// chunk Put in another P's private pool slot costs one 16 KiB chunk
// (2 bytes per packet), not a reassembly window of the whole span, and
// that is most of the spread.
func TestLiveWarmServerAllocBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("moves 50 MiB over loopback")
	}
	if perf.RaceEnabled {
		t.Skip("measures allocations, which -race adds to")
	}
	const budget = 30
	cfg := mpquic.DefaultConfig()
	cfg.EnableCrypto = true
	cfg.IdleTimeout = 5 * time.Second

	server := newLive(t, 2)
	lis := server.Listen(cfg)
	server.ServeGet(lis)
	// The server's loop tells the test when it has handled a client's
	// CONNECTION_CLOSE; the records go back before it handles anything
	// else.
	closed := make(chan struct{}, 1)
	lis.OnConnection(func(c *mpquic.Conn) {
		c.OnClosed(func(error) {
			select {
			case closed <- struct{}{}:
			default: // nobody waits: the test has failed already
			}
		})
	})
	go server.Serve()

	get := func(id uint64) uint64 {
		client := newLive(t, 2)
		defer client.Close()
		conn := client.Dial(cfg, id, server.LocalAddrs()...)
		res, err := client.DownloadWith(conn, 10<<20, mpquic.DownloadOpts{Deadline: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if res.Size != 10<<20 {
			t.Fatalf("Size = %d, want %d", res.Size, 10<<20)
		}
		conn.Close()
		if err := client.Driver().Flush(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("the server did not see the client close")
		}
		return conn.Stats.PacketsReceived
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	get(1) // the listener's free list fills with a window's records
	// The client reassembles in 16 KiB chunks from one pool, as many as
	// the bytes one path has delivered ahead of the other. A GET whose
	// reordering span is larger than any earlier GET's takes the
	// difference as new chunks, several MB more in the first GETs of a
	// process: the least of four GETs is the server's cost.
	least := math.Inf(1)
	for id := uint64(2); id <= 5; id++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pkts := get(id)
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/float64(pkts))
	}
	t.Logf("%.1f bytes allocated per received packet, the least of four GETs", least)
	if least > budget {
		t.Errorf("a warm server's two-path GET allocates %.1f bytes per received packet, budget %v", least, budget)
	}
}

// TestLiveFacadeTimeout maps the live timeout onto the facade's
// ErrTimeout so callers handle sim and live deadlines uniformly.
func TestLiveFacadeTimeout(t *testing.T) {
	dead := newLive(t, 1)
	target := dead.LocalAddrs()[0]
	dead.Close()

	cfg := mpquic.SinglePathConfig()
	cfg.IdleTimeout = 10 * time.Second
	client := newLive(t, 1)
	conn := client.Dial(cfg, 8, target)
	_, err := client.DownloadWith(conn, 1<<20, mpquic.DownloadOpts{Deadline: 300 * time.Millisecond})
	if !errors.Is(err, mpquic.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestLiveFacadeServeClosed proves Close stops Serve with the typed
// sentinel.
func TestLiveFacadeServeClosed(t *testing.T) {
	server := newLive(t, 1)
	done := make(chan error, 1)
	go func() { done <- server.Serve() }()
	time.Sleep(20 * time.Millisecond)
	server.Close()
	select {
	case err := <-done:
		if !errors.Is(err, mpquic.ErrClosed) {
			t.Fatalf("Serve = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}
