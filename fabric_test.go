package mpquic_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"mpquic"
)

// Conformance suite for the Fabric interface: every test below runs
// against both backends — the emulated *Network and the real-socket
// *LiveNetwork — asserting the shared semantics the interface
// documents (download round trip, Serve/Close lifecycle, the unified
// ErrTimeout / *AbortError / ErrClosed / context error surface).
//
// Live subtests bind loopback UDP sockets; where the environment
// forbids that, they skip cleanly.

// fabricEnv is one backend instantiation: a serving fabric, a dialing
// fabric (the same object for the emulated backend), the remote
// addresses to dial, and a way to make every path dead (so timeout
// and abort paths are reachable deterministically on both backends).
type fabricEnv struct {
	server  mpquic.Fabric
	client  mpquic.Fabric
	remotes []string

	// deadPaths makes the dialed paths permanently silent: emulated
	// paths are killed; the live env instead returns remotes pointing
	// at sockets nobody serves.
	deadPaths   func()
	deadRemotes []string

	// tooShort is a deadline a 2 MB GET over live paths cannot meet:
	// 300 ms of virtual time at 20 Mbit/s, or a wall-clock instant no
	// handshake fits in.
	tooShort time.Duration
}

// fabricBackends returns a constructor per backend. Constructors
// register cleanup on t and may skip (live without UDP).
func fabricBackends() map[string]func(t *testing.T) *fabricEnv {
	return map[string]func(t *testing.T) *fabricEnv{
		"sim": func(t *testing.T) *fabricEnv {
			net := mpquic.NewTwoPathNetwork(twoPathSpec(1))
			t.Cleanup(func() { net.Close() })
			remotes := []string{net.ServerAddr(0), net.ServerAddr(1)}
			return &fabricEnv{
				server:  net,
				client:  net,
				remotes: remotes,
				deadPaths: func() {
					net.KillPath(0)
					net.KillPath(1)
				},
				deadRemotes: remotes,
				tooShort:    300 * time.Millisecond,
			}
		},
		"live": func(t *testing.T) *fabricEnv {
			addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
			srv, err := mpquic.NewLive(addrs...)
			if err != nil {
				t.Skipf("live UDP unavailable: %v", err)
			}
			t.Cleanup(func() { srv.Close() })
			cli, err := mpquic.NewLive(addrs...)
			if err != nil {
				t.Skipf("live UDP unavailable: %v", err)
			}
			t.Cleanup(func() { cli.Close() })
			// A bound-but-unserved network: its sockets accept
			// packets that no protocol endpoint ever answers.
			silent, err := mpquic.NewLive(addrs...)
			if err != nil {
				t.Skipf("live UDP unavailable: %v", err)
			}
			t.Cleanup(func() { silent.Close() })
			return &fabricEnv{
				server:      srv,
				client:      cli,
				remotes:     srv.LocalAddrs(),
				deadPaths:   func() {},
				deadRemotes: silent.LocalAddrs(),
				tooShort:    time.Microsecond,
			}
		},
	}
}

// runOnBackends runs fn as a subtest per backend.
func runOnBackends(t *testing.T, fn func(t *testing.T, env *fabricEnv)) {
	for name, mk := range fabricBackends() {
		t.Run(name, func(t *testing.T) {
			fn(t, mk(t))
		})
	}
}

// A GET round trip completes through the Fabric interface alone on
// both backends, and closing the fabric releases Serve with ErrClosed.
func TestFabricDownloadCompletes(t *testing.T) {
	runOnBackends(t, func(t *testing.T, env *fabricEnv) {
		cfg := mpquic.DefaultConfig()
		env.server.ServeGet(env.server.Listen(cfg))
		served := make(chan error, 1)
		go func() { served <- env.server.Serve() }()

		client := env.client.Dial(cfg, 42, env.remotes...)
		res, err := env.client.Download(client, 1<<20)
		if err != nil {
			t.Fatalf("Download: %v", err)
		}
		if res.Size != 1<<20 || res.Elapsed() <= 0 || res.GoodputBps() <= 0 {
			t.Fatalf("implausible result: %+v", res)
		}

		env.server.Close()
		select {
		case err := <-served:
			if !errors.Is(err, mpquic.ErrClosed) {
				t.Fatalf("Serve after Close = %v, want ErrClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Serve did not return after Close")
		}
	})
}

// Serve blocks until Close and then returns ErrClosed, on both
// backends, even when nothing was ever listened or dialed.
func TestFabricServeCloseLifecycle(t *testing.T) {
	runOnBackends(t, func(t *testing.T, env *fabricEnv) {
		served := make(chan error, 1)
		go func() { served <- env.server.Serve() }()
		select {
		case err := <-served:
			t.Fatalf("Serve returned before Close: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
		env.server.Close()
		select {
		case err := <-served:
			if !errors.Is(err, mpquic.ErrClosed) {
				t.Fatalf("Serve = %v, want ErrClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Serve did not return after Close")
		}
		// Close is idempotent.
		if err := env.server.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	})
}

// A transfer whose paths never deliver anything times out with the
// unified ErrTimeout on both backends.
func TestFabricDownloadTimeout(t *testing.T) {
	runOnBackends(t, func(t *testing.T, env *fabricEnv) {
		env.deadPaths()
		client := env.client.Dial(mpquic.DefaultConfig(), 42, env.deadRemotes...)
		_, err := env.client.DownloadWith(client, 1<<20, mpquic.DownloadOpts{
			Deadline: 300 * time.Millisecond,
		})
		if !errors.Is(err, mpquic.ErrTimeout) {
			t.Fatalf("DownloadWith on dead paths = %v, want ErrTimeout", err)
		}
	})
}

// A GET that missed its deadline is not cancelled: it keeps running on
// the connection and finishes late. That late completion must not end
// the next DownloadWith on the same connection — the stop condition is
// "this GET is done", on both backends.
func TestFabricRepeatedDownloadAfterTimeout(t *testing.T) {
	runOnBackends(t, func(t *testing.T, env *fabricEnv) {
		cfg := mpquic.DefaultConfig()
		env.server.ServeGet(env.server.Listen(cfg))
		go env.server.Serve()

		client := env.client.Dial(cfg, 42, env.remotes...)
		_, err := env.client.DownloadWith(client, 2<<20, mpquic.DownloadOpts{Deadline: env.tooShort})
		if !errors.Is(err, mpquic.ErrTimeout) {
			t.Fatalf("first DownloadWith = %v, want ErrTimeout", err)
		}
		res, err := env.client.DownloadWith(client, 20<<20, mpquic.DownloadOpts{Deadline: time.Hour})
		if err != nil {
			t.Fatalf("second DownloadWith on the same connection: %v", err)
		}
		if res.Size != 20<<20 {
			t.Fatalf("second DownloadWith returned %+v, want the 20 MB GET's result", res)
		}
	})
}

// A connection that dies mid-transfer (idle timeout across dead
// paths) surfaces as the unified *AbortError on both backends,
// carrying the close reason.
func TestFabricDownloadAbort(t *testing.T) {
	runOnBackends(t, func(t *testing.T, env *fabricEnv) {
		env.deadPaths()
		cfg := mpquic.DefaultConfig()
		cfg.IdleTimeout = 200 * time.Millisecond
		client := env.client.Dial(cfg, 42, env.deadRemotes...)
		_, err := env.client.DownloadWith(client, 1<<20, mpquic.DownloadOpts{
			Deadline: 10 * time.Second,
		})
		var abort *mpquic.AbortError
		if !errors.As(err, &abort) {
			t.Fatalf("DownloadWith past idle timeout = %v, want *AbortError", err)
		}
		if abort.Err == nil || abort.Unwrap() == nil {
			t.Fatalf("AbortError carries no close reason: %v", abort)
		}
	})
}

// An already-canceled context short-circuits DownloadWith with the
// context's error on both backends (the emulated backend checks only
// on entry; the live one also honors cancellation mid-transfer — see
// TestFabricContextCancelMidTransfer).
func TestFabricContextPreCanceled(t *testing.T) {
	runOnBackends(t, func(t *testing.T, env *fabricEnv) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		client := env.client.Dial(mpquic.DefaultConfig(), 42, env.deadRemotes...)
		_, err := env.client.DownloadWith(client, 1<<20, mpquic.DownloadOpts{
			Deadline: 10 * time.Second,
			Ctx:      ctx,
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("DownloadWith with canceled ctx = %v, want context.Canceled", err)
		}
	})
}

// Mid-transfer cancellation is live-only (the emulated loop is
// synchronous in virtual time): canceling while blocked on silent
// paths unblocks the loop promptly with the context error.
func TestFabricContextCancelMidTransfer(t *testing.T) {
	env := fabricBackends()["live"](t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	client := env.client.Dial(mpquic.DefaultConfig(), 42, env.deadRemotes...)
	start := time.Now()
	_, err := env.client.DownloadWith(client, 1<<20, mpquic.DownloadOpts{
		Deadline: 30 * time.Second,
		Ctx:      ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("DownloadWith after cancel = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt wake-up", el)
	}
}
