package live_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"mpquic/internal/core"
	"mpquic/internal/live"
	"mpquic/internal/netem"
	"mpquic/internal/trace"
)

// Adversarial ingress tests: packet bursts, kernel receive-queue
// overflow, and cancellation — the failure modes the batched fast
// lane must absorb without wedging or miscounting.

// newDriverOpts is newDriver with construction options.
func newDriverOpts(t *testing.T, n int, opts ...live.Option) *live.Driver {
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

// countingHandler counts datagrams delivered by the driver loop. Only
// the Run goroutine touches it (the driver's single-writer contract).
type countingHandler struct{ packets, bytes int }

func (h *countingHandler) HandleDatagram(dg netem.Datagram) {
	h.packets++
	h.bytes += int(dg.Size)
}

// blast fires count UDP datagrams of size bytes at the driver's first
// socket from a throwaway sender, as fast as the kernel accepts them.
func blast(t *testing.T, d *live.Driver, count, size int) {
	t.Helper()
	dst, err := net.ResolveUDPAddr("udp", string(d.LocalAddrs()[0]))
	if err != nil {
		t.Fatal(err)
	}
	sender, err := net.DialUDP("udp", nil, dst)
	if err != nil {
		t.Skipf("UDP sender unavailable: %v", err)
	}
	defer sender.Close()
	payload := make([]byte, size)
	for i := 0; i < count; i++ {
		sender.Write(payload)
	}
}

// A burst arriving while the loop is busy elsewhere queues in the
// reader channel (visible via PendingIngress) and is then injected in
// large batches — many packets per clock step, not one step each.
func TestBurstIngressIsBatched(t *testing.T) {
	d := newDriverOpts(t, 1)
	h := &countingHandler{}
	d.Register(d.LocalAddrs()[0], h)

	const burst = 400
	blast(t, d, burst, 1200)

	// The driver is not running yet, so the burst must pile up in the
	// reader queue.
	deadline := time.Now().Add(5 * time.Second)
	for d.PendingIngress() < burst/2 {
		if time.Now().After(deadline) {
			t.Fatalf("burst never queued: PendingIngress = %d after blasting %d", d.PendingIngress(), burst)
		}
		time.Sleep(time.Millisecond)
	}

	// Loopback delivery is reliable at these sizes, but the contract
	// under test is batching, not zero loss — require most of the
	// burst, in far fewer steps than packets.
	if err := d.Run(func() bool { return h.packets >= burst*9/10 }); err != nil {
		t.Fatal(err)
	}
	if d.Stats.IngressBatches == 0 || d.Stats.MaxBatch < 2 {
		t.Fatalf("burst was not batched: %d batches, max batch %d", d.Stats.IngressBatches, d.Stats.MaxBatch)
	}
	if steps := d.Stats.IngressBatches; steps > burst/4 {
		t.Fatalf("burst of %d took %d clock steps; batching is not effective", burst, steps)
	}
	if d.Stats.PacketsIn != uint64(h.packets) {
		t.Fatalf("stats disagree with handler: PacketsIn=%d, handler saw %d", d.Stats.PacketsIn, h.packets)
	}
	// BytesIn counts raw UDP payload (dg.Size adds the emulator's
	// header overhead, so compare against the known payload size).
	if d.Stats.BytesIn != d.Stats.PacketsIn*1200 {
		t.Fatalf("BytesIn = %d, want %d", d.Stats.BytesIn, d.Stats.PacketsIn*1200)
	}
}

// With a deliberately tiny SO_RCVBUF, a sustained burst must overflow
// the kernel receive queue; the driver surfaces the kernel's drop
// counter through Stats.RcvQueueDrops instead of hiding the loss, and
// keeps working afterwards.
func TestTinySocketBufferOverflowSurfaced(t *testing.T) {
	if _, err := os.ReadFile("/proc/net/udp"); err != nil {
		t.Skipf("kernel drop counters unavailable: %v", err)
	}
	d := newDriverOpts(t, 1, live.WithSocketBuffer(2048))
	h := &countingHandler{}
	d.Register(d.LocalAddrs()[0], h)

	// Far more than the reader queue plus a 2 KB kernel buffer can
	// hold: the tail has nowhere to go and the kernel must drop it.
	const flood = 4000
	blast(t, d, flood, 1200)

	deadline := time.Now().Add(10 * time.Second)
	for {
		d.UpdateSocketStats()
		if d.Stats.RcvQueueDrops > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flooded %d packets into a 2 KB socket buffer, kernel drop counter still zero", flood)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The queued survivors still flow once the loop runs: overflow is
	// loss, not a wedge.
	if err := d.Run(func() bool { return h.packets > 0 }); err != nil {
		t.Fatal(err)
	}
	if h.packets == 0 {
		t.Fatal("no packets delivered after overflow")
	}
	d.UpdateSocketStats()
	t.Logf("flood=%d delivered=%d kernel drops=%d", flood, h.packets, d.Stats.RcvQueueDrops)
}

// Cancellation mid-download: a canceled context wakes a blocked loop
// promptly and DriveUntil returns the context's error.
func TestDownloadCancel(t *testing.T) {
	silent := newDriver(t, 1) // bound sockets, no endpoint: never answers
	client, conn := dial(t, silent, 1, 77)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := client.DriveUntil(ctx, 30*time.Second, conn.Closed)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("DriveUntil after cancel = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt wake-up", el)
	}
}

// junkInjector fires on every n-th packet the connection receives, up
// to max times: a way to do something mid-transfer from inside the run
// loop, with no sleeping goroutine to race the transfer.
type junkInjector struct {
	every, max  int
	seen, fired int
	fire        func()
}

func (j *junkInjector) Trace(ev trace.Event) {
	if ev.Type != trace.PacketReceived {
		return
	}
	if j.seen++; j.seen%j.every == 0 && j.fired < j.max {
		j.fired++
		j.fire()
	}
}

// A read keeps at most netem.MTU (1500) bytes of a datagram. No peer
// sends more than wire.MaxPacketSize; a 2000-byte datagram is junk, and
// what is left of it must be dropped and counted like any other
// undecodable packet while the transfer around it completes untouched.
func TestOversizedJunkMidTransferDroppedAndCounted(t *testing.T) {
	server := startGetServer(t, 1)
	client := newDriver(t, 1)
	dst, err := net.ResolveUDPAddr("udp", string(client.LocalAddrs()[0]))
	if err != nil {
		t.Fatal(err)
	}
	stranger, err := net.DialUDP("udp", nil, dst)
	if err != nil {
		t.Skipf("UDP sender unavailable: %v", err)
	}
	defer stranger.Close()

	junk := bytes.Repeat([]byte{0xff}, 2000)
	inj := &junkInjector{every: 100, max: 5, fire: func() { stranger.Write(junk) }}
	cfg := liveConfig(1)
	cfg.Tracer = inj
	conn := core.Dial(client, cfg, core.NewConnID(90), client.LocalAddrs(), server.LocalAddrs())

	const size = 4 << 20
	res, err := live.Download(client, conn, size, 30*time.Second)
	if err != nil {
		t.Fatalf("oversized junk killed the transfer: %v", err)
	}
	if inj.fired == 0 {
		t.Fatal("no junk was injected during the transfer")
	}
	if got := client.Stats.CorruptDrops; got == 0 || got > uint64(inj.fired) {
		t.Fatalf("CorruptDrops = %d after %d junk datagrams, want 1..%d", got, inj.fired, inj.fired)
	}
	if s := conn.StreamByID(core.FirstClientStream); res.Size != size || s == nil || s.BytesReceived() != size {
		t.Fatalf("transfer delivered Size=%d, stream %v; want exactly %d bytes", res.Size, s, size)
	}
}

// recordingHandler keeps a copy of every datagram the loop delivers
// (the driver recycles the buffer once HandleDatagram returns).
type recordingHandler struct{ got [][]byte }

func (h *recordingHandler) HandleDatagram(dg netem.Datagram) {
	h.got = append(h.got, append([]byte(nil), dg.Raw...))
}

// Runs a batching driver sends as single UDP_SEGMENT messages reach a
// receiving driver intact and in order whether its socket reads runs
// (a plain socket, UDP_GRO on where the platform has it) or one
// datagram at a time (behind a SocketWrapper, which keeps UDP_GRO off,
// so the kernel cuts the run before the wrapper reads it).
func TestOffloadedRunsReachWrappedAndPlainReceivers(t *testing.T) {
	for _, wrapped := range []bool{false, true} {
		var opts []live.Option
		if wrapped {
			opts = append(opts, live.WithSocketWrapper(func(_ int, c live.UDPConn) live.UDPConn { return &passThrough{c} }))
		}
		rx := newDriverOpts(t, 1, opts...)
		h := &recordingHandler{}
		rx.Register(rx.LocalAddrs()[0], h)
		tx := newDriver(t, 1)
		const n, size = 150, 1300
		for seq := uint64(0); seq < n; seq++ {
			sendFilled(tx, rx.LocalAddrs()[0], seq, size)
		}
		if err := tx.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := rx.DriveUntil(context.Background(), 5*time.Second, func() bool { return len(h.got) >= n }); err != nil {
			t.Fatal(err)
		}
		if len(h.got) != n {
			t.Fatalf("wrapped=%v: %d of %d datagrams arrived", wrapped, len(h.got), n)
		}
		for seq, b := range h.got {
			if got := checkFilled(t, b, size); got != uint64(seq) {
				t.Fatalf("wrapped=%v: datagram %d carries %d", wrapped, seq, got)
			}
		}
	}
}
