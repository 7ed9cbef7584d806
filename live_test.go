package mpquic_test

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"mpquic"
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
