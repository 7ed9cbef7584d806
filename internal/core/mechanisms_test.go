package core_test

import (
	"testing"
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/core"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/wire"
)

// TestPerPathPacketNumberSpaces: each path numbers its packets
// independently from zero (§3, Reliable Data Transmission / Fig. 1).
func TestPerPathPacketNumberSpaces(t *testing.T) {
	mp := core.DefaultConfig()
	h := newHarness(t, mp, mp, symSpecs(10, 30*time.Millisecond))
	apps.NewGetServer(h.listener)
	apps.NewGetClient(h.client, 2<<20, func() time.Duration { return h.clock.Now().Duration() }, nil)
	h.run(t, 30*time.Second)
	srv := h.serverConn(t)
	for _, p := range srv.Paths() {
		sent := p.SentPackets
		largest := p.Space().LargestSent()
		// If spaces were shared, per-path largest PN would exceed the
		// per-path sent count.
		if uint64(largest) > sent+16 {
			t.Fatalf("path %d: largest sent PN %d vs %d packets — spaces not separate",
				p.ID, largest, sent)
		}
		if sent == 0 {
			t.Fatalf("path %d unused", p.ID)
		}
	}
}

// TestCrossPathRetransmission: data lost on one path is retransmitted
// over the other (frames are not pinned to packets/paths, §3).
func TestCrossPathRetransmission(t *testing.T) {
	mp := core.DefaultConfig()
	specs := symSpecs(10, 20*time.Millisecond)
	h := newHarness(t, mp, mp, specs)
	apps.NewGetServer(h.listener)
	var res *apps.GetResult
	apps.NewGetClient(h.client, 4<<20, func() time.Duration { return h.clock.Now().Duration() },
		func(r apps.GetResult) { res = &r })
	// Kill path 0 mid-transfer: all data in flight there must be
	// recovered via path 1.
	h.clock.At(sim.Time(1*time.Second), func() { h.tp.KillPath(0) })
	h.run(t, 120*time.Second)
	if res == nil {
		t.Fatal("transfer did not survive the path loss")
	}
	srv := h.serverConn(t)
	if !srv.PathByID(0).PotentiallyFailed() && !srv.PathByID(0).RemotePF() {
		t.Fatal("dead path not flagged on the server")
	}
}

// TestRemotePFAvoidsPath: after receiving a PATHS frame flagging a
// path, the peer's scheduler avoids it (§4.3).
func TestRemotePFAvoidsPath(t *testing.T) {
	mp := core.DefaultConfig()
	specs := [2]netem.PathSpec{
		{CapacityMbps: 10, RTT: 10 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
		{CapacityMbps: 10, RTT: 40 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
	}
	h := newHarness(t, mp, mp, specs)
	apps.NewEchoServer(h.listener)
	rr := apps.NewReqRespClient(h.client, h.clock, 12*time.Second)
	h.clock.At(sim.Time(2*time.Second), func() { h.tp.KillPath(0) })
	h.run(t, 6*time.Second)
	srv := h.serverConn(t)
	p0 := srv.PathByID(0)
	if p0 == nil || !p0.RemotePF() {
		t.Fatal("server never learned about the failure via PATHS")
	}
	// The server's traffic after the failure flows on path 1: path 0
	// forward counter freezes while the train keeps running.
	sentOnDead := p0.SentPackets
	before := len(rr.Samples())
	h.run(t, 12*time.Second)
	if len(rr.Samples()) <= before {
		t.Fatal("request train stalled")
	}
	if p0.SentPackets > sentOnDead+4 {
		t.Fatalf("server kept sending on a remote-PF path (%d -> %d)", sentOnDead, p0.SentPackets)
	}
}

// TestNATRebindingKeepsPathState: a remote address change on a known
// Path ID updates the path without resetting RTT or packet numbers
// (§3, Path Identification).
func TestNATRebindingKeepsPathState(t *testing.T) {
	cfg := core.DefaultSinglePathConfig()
	h := newHarness(t, cfg, cfg, symSpecs(10, 20*time.Millisecond))
	apps.NewGetServer(h.listener)
	apps.NewGetClient(h.client, 1<<20, func() time.Duration { return h.clock.Now().Duration() }, nil)
	h.run(t, 500*time.Millisecond)
	srv := h.serverConn(t)
	srtt := srv.PathByID(0).RTT().SmoothedRTT()
	if srtt == 0 {
		t.Fatal("no RTT sample before rebinding")
	}
	// Simulate NAT rebinding: client re-registers under a new source
	// address and routes are added for it.
	newAddr := netem.Addr("10.0.1.99:5000")
	link := h.tp.Net.Route(h.tp.ClientAddrs[0], h.tp.ServerAddrs[0])
	rev := h.tp.Net.Route(h.tp.ServerAddrs[0], h.tp.ClientAddrs[0])
	h.tp.Net.AddRoute(newAddr, h.tp.ServerAddrs[0], link)
	h.tp.Net.AddRoute(h.tp.ServerAddrs[0], newAddr, rev)
	// Deliver one datagram with the new source: the server must adopt
	// it and keep the path's RTT state.
	h.tp.Net.Register(newAddr, h.client)
	srvPath := srv.PathByID(0)
	srvPath.Remote = newAddr // emulate in-flight rebinding adoption
	h.run(t, 5*time.Second)
	if got := srv.PathByID(0).RTT().SmoothedRTT(); got == 0 {
		t.Fatal("path state lost after rebinding")
	}
}

// TestAckForPathCarriedOnOtherPath: ACK frames carry a Path ID and may
// travel on any path (§3) — verified via the wire format plus the
// conn's ack dispatch.
func TestAckForPathCarriedOnOtherPath(t *testing.T) {
	// Carry an ACK for path 1 in a path-0 packet and verify it
	// round-trips with its Path ID intact (the conn-level dispatch is
	// covered by the multipath transfer tests; this pins the wire
	// contract).
	ack := &wire.AckFrame{PathID: 1, Ranges: []wire.AckRange{{Smallest: 0, Largest: 9}}}
	p := &wire.Packet{Header: wire.Header{Multipath: true, PacketNumber: 3}, Frames: []wire.Frame{ack}}
	got, err := wire.Decode(p.EncodeTo(nil, nil), wire.InvalidPacketNumber, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Frames[0].(*wire.AckFrame).PathID != 1 {
		t.Fatal("ACK lost its Path ID")
	}
}

// TestStreamsPreventHOLBlockingAcrossStreams: two streams make
// independent progress (one stalled stream does not block the other).
func TestStreamsPreventHOLBlockingAcrossStreams(t *testing.T) {
	cfg := core.DefaultSinglePathConfig()
	h := newHarness(t, cfg, cfg, symSpecs(10, 20*time.Millisecond))
	done := map[*core.Stream]bool{}
	h.listener.OnConnection(func(c *core.Conn) {
		c.OnStreamOpen(func(s *core.Stream) {
			s.OnData(func() {
				if n := s.Readable(); n > 0 {
					s.Read(n)
				}
				if s.Finished() {
					s.WriteSynthetic(100 << 10)
					s.Close()
				}
			})
		})
	})
	h.client.OnHandshakeComplete(func() {
		for i := 0; i < 3; i++ {
			s := h.client.OpenStream()
			s.OnData(func() {
				if n := s.Readable(); n > 0 {
					s.Read(n)
				}
				if s.Finished() {
					done[s] = true
				}
			})
			s.WriteSynthetic(1000)
			s.Close()
		}
	})
	h.run(t, 10*time.Second)
	if len(done) != 3 {
		t.Fatalf("only %d/3 streams finished", len(done))
	}
}

// TestHandshakeSurvivesCHLOLoss: losing the client hello delays but
// does not break connection establishment.
func TestHandshakeSurvivesCHLOLoss(t *testing.T) {
	cfg := core.DefaultSinglePathConfig()
	h := newHarness(t, cfg, cfg, symSpecs(10, 20*time.Millisecond))
	// Down the forward link before the CHLO leaves the queue.
	h.tp.Fwd[0].SetDown(true)
	h.clock.At(sim.Time(900*time.Millisecond), func() { h.tp.Fwd[0].SetDown(false) })
	h.run(t, 10*time.Second)
	if !h.client.HandshakeComplete() {
		t.Fatal("handshake did not recover from CHLO loss")
	}
}

// TestConnFlowControlCapsUnreadData: an application that never reads
// receives at most the connection window.
func TestConnFlowControlCapsUnreadData(t *testing.T) {
	cfg := core.DefaultSinglePathConfig()
	cfg.ConnWindow = 256 << 10
	cfg.StreamWindow = 1 << 30 // only the connection level binds
	h := newHarness(t, cfg, cfg, symSpecs(50, 10*time.Millisecond))
	h.listener.OnConnection(func(c *core.Conn) {
		c.OnStreamOpen(func(s *core.Stream) {
			s.OnData(func() {
				if n := s.Readable(); n > 0 {
					s.Read(n)
				}
				if s.Finished() {
					s.WriteSynthetic(4 << 20)
					s.Close()
				}
			})
		})
	})
	var resp *core.Stream
	h.client.OnHandshakeComplete(func() {
		s := h.client.OpenStream()
		resp = s
		// Never read: the server must stall at the connection window.
		s.Write([]byte("go"))
		s.Close()
	})
	h.run(t, 20*time.Second)
	if resp == nil {
		t.Fatal("no stream")
	}
	if got := resp.BytesReceived(); got > 256<<10 {
		t.Fatalf("flow control exceeded: %d bytes buffered", got)
	}
	if got := resp.BytesReceived(); got < 128<<10 {
		t.Fatalf("window barely used: %d", got)
	}
}

// TestStreamFlowControlPerStream: the per-stream window binds a single
// stream even when the connection window is large.
func TestStreamFlowControlPerStream(t *testing.T) {
	cfg := core.DefaultSinglePathConfig()
	cfg.ConnWindow = 1 << 30
	cfg.StreamWindow = 128 << 10
	h := newHarness(t, cfg, cfg, symSpecs(50, 10*time.Millisecond))
	h.listener.OnConnection(func(c *core.Conn) {
		c.OnStreamOpen(func(s *core.Stream) {
			s.OnData(func() {
				if n := s.Readable(); n > 0 {
					s.Read(n)
				}
				if s.Finished() {
					s.WriteSynthetic(2 << 20)
					s.Close()
				}
			})
		})
	})
	var resp *core.Stream
	h.client.OnHandshakeComplete(func() {
		s := h.client.OpenStream()
		resp = s
		s.Write([]byte("go"))
		s.Close()
	})
	h.run(t, 20*time.Second)
	if got := resp.BytesReceived(); got > 128<<10 {
		t.Fatalf("stream window exceeded: %d", got)
	}
}
