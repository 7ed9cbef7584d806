package perf

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mpquic/internal/core"
	"mpquic/internal/live"
	"mpquic/internal/netem"
)

// Allocation parity for the live fast lane: the batched UDP driver
// must move packets with the same zero-garbage discipline the sim hot
// path has. Both directions move bytes in run buffers from the
// driver's free list: a reader reads into its socket's and the loop
// hands each read back after the handler; egress queues each datagram
// in its socket's batch buffer. The test encodes into the bytes
// sender.LendRaw lends, the path core's sendPacket takes: the driver
// recycles no caller's buffer, so netem.RawBuffer bytes sent here
// would be taken from netem's pool and never come back, a cost core's
// live egress does not pay. Steady state on both sides is allocation-free —
// this test pins it end to end across two real loopback sockets, for
// flushes of one datagram and for batched flushes of sixteen.

// nullHandler consumes datagrams without touching them: the driver's
// per-packet overhead measured in isolation from protocol work. It
// counts what it saw, and how much of it came with netem.Datagram.More.
//
// When the sender writes one datagram at a time, the receiver left
// alone would mostly step batches of one and never mark anything. On a
// step's last datagram the handler therefore stalls the receiver's loop
// until the rest of the run (up to want) has been read off the socket:
// the next step injects all of it as one batch, More on all but the
// last.
type nullHandler struct {
	pending       func() int
	n, more, want atomic.Int64
}

func (h *nullHandler) HandleDatagram(dg netem.Datagram) {
	n := h.n.Add(1)
	if dg.More {
		h.more.Add(1)
		return
	}
	for spin := 0; spin < 1e5 && int64(h.pending()) < h.want.Load()-n; spin++ {
		time.Sleep(10 * time.Microsecond) // not Gosched: the readers need the netpoller
	}
}

func TestLiveDriverAllocPerPacketSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("binds real UDP sockets")
	}
	sender, err := live.NewDriver([]string{"127.0.0.1:0"})
	if err != nil {
		t.Skipf("UDP sockets unavailable: %v", err)
	}
	defer sender.Close()
	receiver, err := live.NewDriver([]string{"127.0.0.1:0"})
	if err != nil {
		t.Skipf("UDP sockets unavailable: %v", err)
	}
	defer receiver.Close()

	rxAddr := receiver.LocalAddrs()[0]
	txAddr := sender.LocalAddrs()[0]
	h := &nullHandler{pending: receiver.PendingIngress}
	receiver.Register(rxAddr, h)

	// The receiver loop runs in server mode: ingest batches hand run
	// buffers back as fast as the reader fills them, which is the
	// steady state whose allocation count we are pinning. Its work is
	// included in the measurement (AllocsPerRun counts all
	// goroutines).
	go receiver.Run(nil)
	defer receiver.Close()

	payloadLen := samplePayloadLen()
	// send queues perFlush datagrams and flushes them at once: one per
	// Flush writes them one call each, 16 per Flush goes out as one
	// batched write where the platform has one.
	send := func(perFlush int) {
		for i := 0; i < perFlush; i++ {
			buf := sender.LendRaw(txAddr)[:payloadLen]
			sender.Send(core.RawDatagram(txAddr, rxAddr, buf))
		}
		if err := sender.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Warm-up: intern the remote lookup, bind the batched writer and let
	// the run buffers reach steady state.
	for i := 0; i < 512; i++ {
		send(1)
	}
	send(16)
	time.Sleep(100 * time.Millisecond) // let the receiver drain and recycle

	const perRun = 16
	const runs = 200
	for _, perFlush := range []int{1, perRun} {
		warmN, warmMore := h.n.Load(), h.more.Load()
		h.want.Store(warmN)
		allocs := testing.AllocsPerRun(runs, func() {
			want := h.want.Add(perRun)
			for i := 0; i < perRun; i += perFlush {
				send(perFlush)
			}
			for spin := 0; spin < 1e5 && h.n.Load() < want; spin++ {
				time.Sleep(10 * time.Microsecond)
			}
		})
		perPacket := allocs / perRun

		// The budget is zero; the slack absorbs the receiver goroutines'
		// scheduling noise, not a per-packet cost (a real per-packet
		// allocation reads as >= 1.0 here). No sync.Pool is on the path —
		// run buffers come from the driver's free list and egress
		// encodes into lent bytes — so -race, which drops a quarter of
		// what a sync.Pool is given, needs no wider slack.
		const slack = 0.25
		if perPacket > slack {
			t.Errorf("%d per Flush: live driver allocates %.2f/packet in steady state, want 0 (slack %.2f)", perFlush, perPacket, slack)
		}
		// The budget has to cover both lanes of ingest: the plain
		// datagram and the one followed by More.
		if got, more := h.n.Load()-warmN, h.more.Load()-warmMore; got < (runs+1)*perRun || more < got/2 {
			t.Errorf("%d per Flush: receiver saw %d datagrams, %d of them with More; the measured runs should be mostly batched", perFlush, got, more)
		}
	}
	sender.UpdateSocketStats()
	if sender.Stats.WriteErrors > 0 || sender.Stats.NoRoute > 0 {
		t.Errorf("egress errors during measurement: %+v", sender.Stats)
	}
}

// What one fresh two-socket driver costs: the facade's and bench/'s
// live paths pay it once per GET, for a fresh client. It reads about
// 30 KB on linux/amd64, most of it the 512-read queue (20 KB); it read
// about 47 KB while ingest kept a 256-read batch copy and a table of
// handlers beside it. The budget is about 1.2 × the reading, so that
// scratch coming back fails it.
func TestLiveDriverSetupAllocBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("binds real UDP sockets")
	}
	locals := []string{"127.0.0.1:0", "127.0.0.1:0"}
	cycle := func() {
		d, err := live.NewDriver(locals)
		if err != nil {
			t.Skipf("UDP sockets unavailable: %v", err)
		}
		d.Close()
	}
	cycle() // fills the process's run buffer free list
	const drivers = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range drivers {
		cycle()
	}
	runtime.ReadMemStats(&after)
	perDriver := (after.TotalAlloc - before.TotalAlloc) / drivers
	const budget = 36 << 10
	if perDriver > budget {
		t.Errorf("a two-socket NewDriver + Close allocates %d B, budget %d", perDriver, budget)
	}
}
