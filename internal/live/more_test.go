package live_test

import (
	"net"
	"testing"
	"time"

	"mpquic/internal/core"
	"mpquic/internal/live"
	"mpquic/internal/netem"
	"mpquic/internal/wire"
)

// Tests of the driver's half of netem.Datagram.More: a batch injected
// at one clock instant tells every handler which of its datagrams is
// the last, and an endpoint answers the batch once.

// delivered is one datagram as a handler saw it: the clock step it was
// injected in (Stats.IngressBatches counts them) and the More hint.
type delivered struct {
	step uint64
	more bool
}

// moreLog records what the driver's loop delivers. Only the goroutine
// inside Run touches it, which in these tests is the test's own.
type moreLog struct {
	d    *live.Driver
	seen []delivered
}

func (l *moreLog) HandleDatagram(dg netem.Datagram) {
	l.seen = append(l.seen, delivered{l.d.Stats.IngressBatches, dg.More})
}

// checkMoreContract: within every clock step, all of a handler's
// datagrams but the last carry More, and the last does not. It returns
// the size of the largest step.
func checkMoreContract(t *testing.T, who string, seen []delivered) int {
	t.Helper()
	largest := 0
	for i := 0; i < len(seen); {
		j := i
		for j < len(seen) && seen[j].step == seen[i].step {
			j++
		}
		for k := i; k < j; k++ {
			if want := k < j-1; seen[k].more != want {
				t.Fatalf("%s: step %d, datagram %d of %d delivered with More=%v", who, seen[i].step, k-i+1, j-i, seen[k].more)
			}
		}
		largest = max(largest, j-i)
		i = j
	}
	return largest
}

// blastAt is blast aimed at the driver's socket idx.
func blastAt(t *testing.T, d *live.Driver, idx, count int, payload []byte) *net.UDPConn {
	t.Helper()
	dst, err := net.ResolveUDPAddr("udp", string(d.LocalAddrs()[idx]))
	if err != nil {
		t.Fatal(err)
	}
	sender, err := net.DialUDP("udp", nil, dst)
	if err != nil {
		t.Skipf("UDP sender unavailable: %v", err)
	}
	t.Cleanup(func() { sender.Close() })
	for i := 0; i < count; i++ {
		sender.Write(payload)
	}
	return sender
}

// awaitPending waits for the readers to have queued n datagrams for a
// loop that is not running yet.
func awaitPending(t *testing.T, d *live.Driver, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for d.PendingIngress() < n {
		if time.Now().After(deadline) {
			t.Fatalf("PendingIngress = %d, want %d", d.PendingIngress(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// One handler on both sockets: one More=false per clock step, on the
// step's last datagram whichever socket it came from. A batch of one is
// delivered as before there was a hint.
func TestBatchMarksMoreOnAllButTheLastDatagram(t *testing.T) {
	d := newDriverOpts(t, 2)
	h := &moreLog{d: d}
	d.Register(d.LocalAddrs()[0], h)
	d.Register(d.LocalAddrs()[1], h)

	blastAt(t, d, 0, 1, make([]byte, 100))
	awaitPending(t, d, 1)
	if err := d.Run(func() bool { return len(h.seen) == 1 }); err != nil {
		t.Fatal(err)
	}
	if h.seen[0].more || d.Stats.IngressBatches != 1 {
		t.Fatalf("a batch of one: More=%v, %d steps", h.seen[0].more, d.Stats.IngressBatches)
	}

	const each = 200
	blastAt(t, d, 0, each, make([]byte, 100))
	blastAt(t, d, 1, each, make([]byte, 100))
	awaitPending(t, d, 2*each*9/10)
	if err := d.Run(func() bool { return len(h.seen) >= 1+2*each*9/10 }); err != nil {
		t.Fatal(err)
	}
	if largest := checkMoreContract(t, "shared handler", h.seen); largest < 2 {
		t.Fatal("no step injected more than one datagram")
	}
	final := 0
	for _, s := range h.seen {
		if !s.more {
			final++
		}
	}
	if uint64(final) != d.Stats.IngressBatches {
		t.Fatalf("%d datagrams without More in %d clock steps, want one per step", final, d.Stats.IngressBatches)
	}
}

// A full batch of data packets on two paths, waiting in the reader
// queue when the loop steps, is acknowledged by one ACK frame per path
// — not by one for every second packet.
func TestBatchIsAcknowledgedOncePerPath(t *testing.T) {
	d := newDriverOpts(t, 2)
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("UDP socket unavailable: %v", err)
	}
	defer peer.Close()
	peerAddr := netem.Addr(peer.LocalAddr().String())

	// The client's handshake goes unanswered; it takes data and
	// acknowledges it all the same.
	cfg := liveConfig(2)
	cfg.EnableCrypto = false
	const connID = 0xacc
	conn := core.Dial(d, cfg, connID, d.LocalAddrs(), []netem.Addr{peerAddr, peerAddr})
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	const perPath = 128 // two paths fill one batch exactly
	payload := make([]byte, 1000)
	for path := 0; path < 2; path++ {
		dst, err := net.ResolveUDPAddr("udp", string(d.LocalAddrs()[path]))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perPath; i++ {
			pkt := &wire.Packet{
				Header: wire.Header{ConnID: connID, Multipath: true, PathID: wire.PathID(path), PacketNumber: wire.PacketNumber(1 + i)},
				Frames: []wire.Frame{&wire.StreamFrame{StreamID: 2, Offset: uint64((path*perPath + i) * len(payload)), Data: payload}},
			}
			if _, err := peer.WriteToUDP(pkt.EncodeTo(nil, nil), dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	awaitPending(t, d, 2*perPath)
	if err := d.Run(func() bool { return d.Stats.IngressBatches >= 1 }); err != nil {
		t.Fatal(err)
	}
	if d.Stats.MaxBatch != 2*perPath {
		t.Fatalf("the step injected %d datagrams, want %d", d.Stats.MaxBatch, 2*perPath)
	}
	if s := conn.StreamByID(2); s == nil || s.BytesReceived() != uint64(2*perPath*len(payload)) {
		t.Fatalf("stream after the batch: %v", s)
	}

	// Everything the step sent is in the peer's socket buffer by now.
	acks := make(map[wire.PathID]int)
	buf := make([]byte, 2048)
	for {
		peer.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		n, _, err := peer.ReadFromUDP(buf)
		if err != nil {
			break
		}
		pkt, err := wire.Decode(buf[:n], wire.InvalidPacketNumber, nil)
		if err != nil {
			t.Fatalf("undecodable packet from the client: %v", err)
		}
		for _, f := range pkt.Frames {
			if a, ok := f.(*wire.AckFrame); ok {
				acks[a.PathID]++
				if a.LargestAcked() != perPath {
					t.Errorf("path %d: ACK up to %d, want %d", a.PathID, a.LargestAcked(), perPath)
				}
			}
		}
	}
	if acks[0] != 1 || acks[1] != 1 {
		t.Fatalf("ACK frames per path = %v, want one each for %d data packets", acks, perPath)
	}
}
