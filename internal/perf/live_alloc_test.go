package perf

import (
	"testing"
	"time"

	"mpquic/internal/core"
	"mpquic/internal/live"
	"mpquic/internal/netem"
	"mpquic/internal/wire"
)

// Allocation parity for the live fast lane: the batched UDP driver
// must move packets with the same zero-garbage discipline the sim hot
// path has. Both directions draw 1500-byte buffers from the wire pool:
// egress returns them after the socket write, ingress after the
// handler. Steady state on both sides is allocation-free — this test
// pins it end to end across two real loopback sockets.

// nullHandler consumes datagrams without touching them: the driver's
// per-packet overhead measured in isolation from protocol work.
type nullHandler struct{ n int }

func (h *nullHandler) HandleDatagram(netem.Datagram) { h.n++ }

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
	receiver.Register(rxAddr, &nullHandler{})

	// The receiver loop runs in server mode: ingest batches recycle
	// pool buffers as fast as the reader draws them, which is the
	// steady state whose allocation count we are pinning. Its work is
	// included in the measurement (AllocsPerRun counts all
	// goroutines).
	go receiver.Run(nil)
	defer receiver.Close()

	payloadLen := SamplePayloadLen()
	sendOne := func() {
		buf := wire.GetPacketBuf()[:payloadLen]
		sender.Send(core.RawDatagram(txAddr, rxAddr, buf))
		if err := sender.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Warm-up: intern the remote lookup and let the wire pool reach
	// steady state.
	for i := 0; i < 512; i++ {
		sendOne()
	}
	time.Sleep(100 * time.Millisecond) // let the receiver drain and recycle

	const perRun = 16
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < perRun; i++ {
			sendOne()
		}
	})
	perPacket := allocs / perRun

	// The budget is zero; the slack absorbs sync.Pool refills after a
	// GC inside the measured window and the receiver goroutines'
	// scheduling noise, not a per-packet cost (a real per-packet
	// allocation reads as >= 1.0 here).
	if perPacket > 0.25 {
		t.Errorf("live driver allocates %.2f/packet in steady state, want 0 (slack 0.25)", perPacket)
	}
	sender.UpdateSocketStats()
	if sender.Stats.WriteErrors > 0 || sender.Stats.NoRoute > 0 {
		t.Errorf("egress errors during measurement: %+v", sender.Stats)
	}
}
