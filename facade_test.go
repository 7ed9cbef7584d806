package mpquic_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"mpquic"
)

func twoPathSpec(seed uint64) mpquic.TwoPathConfig {
	return mpquic.TwoPathConfig{
		Path0: mpquic.PathSpec{CapacityMbps: 10, RTT: 30 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
		Path1: mpquic.PathSpec{CapacityMbps: 10, RTT: 40 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
		Seed:  seed,
	}
}

// A transfer whose every path dies mid-run cannot finish: Download must
// report that as ErrTimeout, not hang or return a zero result.
func TestDownloadTimeoutOnKilledPaths(t *testing.T) {
	net := mpquic.NewTwoPathNetwork(twoPathSpec(1))
	server := net.Listen(mpquic.DefaultConfig())
	net.ServeGet(server)
	client := net.Dial(mpquic.DefaultConfig(), 42)

	// Both paths fail one second into the transfer.
	net.At(time.Second, func() {
		net.KillPath(0)
		net.KillPath(1)
	})

	_, err := net.DownloadWith(client, 64<<20, mpquic.DownloadOpts{Deadline: 30 * time.Second})
	if !errors.Is(err, mpquic.ErrTimeout) {
		t.Fatalf("Download on killed paths: err = %v, want ErrTimeout", err)
	}
}

// Tracing is a pure observer: arming a qlog tracer on the endpoints
// and the links must not change the transfer's outcome, and the trace
// must carry qlog-framed events.
func TestFacadeTracingIsPureObserver(t *testing.T) {
	download := func(tracer mpquic.Tracer) mpquic.GetResult {
		net := mpquic.NewTwoPathNetwork(twoPathSpec(1))
		if tracer != nil {
			net.SetLinkTracer(tracer)
		}
		cfg := mpquic.DefaultConfig()
		cfg.Tracer = tracer
		server := net.Listen(cfg)
		net.ServeGet(server)
		client := net.Dial(cfg, 42)
		res, err := net.Download(client, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := download(nil)
	var buf bytes.Buffer
	traced := download(mpquic.NewQlogTracer(&buf, "server"))
	if plain != traced {
		t.Fatalf("tracing changed the run:\nplain  %+v\ntraced %+v", plain, traced)
	}
	if !strings.Contains(buf.String(), `"qlog_version"`) ||
		!strings.Contains(buf.String(), "transport:packet_sent") {
		t.Fatalf("qlog trace missing expected framing:\n%.400s", buf.String())
	}
}

// EventLimit must be honored and surfaced as an error from the clock.
func TestEventLimitSurfacesError(t *testing.T) {
	cfg := twoPathSpec(1)
	cfg.EventLimit = 1000 // far too few events for a 4 MB transfer
	net := mpquic.NewTwoPathNetwork(cfg)
	server := net.Listen(mpquic.DefaultConfig())
	net.ServeGet(server)
	client := net.Dial(mpquic.DefaultConfig(), 42)
	_, err := net.Download(client, 4<<20)
	if err == nil || errors.Is(err, mpquic.ErrTimeout) {
		t.Fatalf("Download with tiny EventLimit: err = %v, want event-limit error", err)
	}
}

// Download with the default deadline completes and reports a sane
// result.
func TestDownloadMethodCompletes(t *testing.T) {
	net := mpquic.NewTwoPathNetwork(twoPathSpec(1))
	server := net.Listen(mpquic.DefaultConfig())
	net.ServeGet(server)
	client := net.Dial(mpquic.DefaultConfig(), 42)
	res, err := net.Download(client, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != 1<<20 || res.Elapsed() <= 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

// Download stops the clock in its completion callback, inside a
// deadline-long RunUntil window. The clock must stay at the stop
// instant: a second Download on the same Network then continues from
// there (it used to find the clock at the first one's 24 h deadline and
// fail with "time went backwards" on the first pending event).
func TestSequentialDownloadsShareOneClock(t *testing.T) {
	net := mpquic.NewTwoPathNetwork(twoPathSpec(1))
	server := net.Listen(mpquic.DefaultConfig())
	net.ServeGet(server)
	client := net.Dial(mpquic.DefaultConfig(), 42)

	first, err := net.Download(client, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Now(); got != first.Finish {
		t.Fatalf("clock at %v after the first download, want its completion instant %v", got, first.Finish)
	}
	second, err := net.Download(client, 1<<20)
	if err != nil {
		t.Fatalf("second download: %v", err)
	}
	if second.Size != 1<<20 || second.Start != first.Finish {
		t.Fatalf("second download %+v did not start where the first ended (%v)", second, first.Finish)
	}
	// No time passes between the two, so the clock reads their sum.
	if got, want := net.Now(), first.Elapsed()+second.Elapsed(); got != want {
		t.Fatalf("clock at %v after both downloads, want %v", got, want)
	}
}

// The same late GET must not cut RunFor short either: after a Download
// that timed out, RunFor still advances the clock by the full duration
// while the abandoned GET completes inside it.
func TestRunForAfterTimedOutDownload(t *testing.T) {
	net := mpquic.NewTwoPathNetwork(twoPathSpec(1))
	net.ServeGet(net.Listen(mpquic.DefaultConfig()))
	client := net.Dial(mpquic.DefaultConfig(), 42)
	_, err := net.DownloadWith(client, 2<<20, mpquic.DownloadOpts{Deadline: 300 * time.Millisecond})
	if !errors.Is(err, mpquic.ErrTimeout) {
		t.Fatalf("DownloadWith = %v, want ErrTimeout", err)
	}
	before := net.Now()
	if err := net.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := net.Now() - before; got != 10*time.Second {
		t.Fatalf("RunFor(10s) advanced the clock by %v", got)
	}
}
