package core

import (
	"testing"
	"time"

	"mpquic/internal/netem"
	"mpquic/internal/recovery"
	"mpquic/internal/sim"
	"mpquic/internal/slab"
	"mpquic/internal/wire"
)

// captureNet is a DatagramSender that keeps what it is sent.
type captureNet struct {
	clock *sim.Clock
	sent  []netem.Datagram
}

func (n *captureNet) Send(dg netem.Datagram)             { n.sent = append(n.sent, dg) }
func (n *captureNet) Register(netem.Addr, netem.Handler) {}
func (n *captureNet) Clock() *sim.Clock                  { return n.clock }

// TestStructModePeerOwnsItsAck: the ACK frame a struct-mode packet
// carries is the receiver's own. The sender builds every ACK in one
// frame per path, so the ranges a peer was handed must still read as
// sent after the sender has built its next ACK on that path.
func TestStructModePeerOwnsItsAck(t *testing.T) {
	nw := &captureNet{clock: sim.NewClock()}
	c := newConn(nw, RoleServer, 1, DefaultConfig(), []netem.Addr{"b0"}, []netem.Addr{"a0"}, new(slab.List[recovery.SentPacket]))
	p := c.addPath(0, "b0", "a0")
	// ackOf delivers a ping with the given packet number and returns the
	// ACK frame of the packet it provokes.
	ackOf := func(pn wire.PacketNumber) *wire.AckFrame {
		t.Helper()
		before := len(nw.sent)
		c.HandleDatagram(netem.Datagram{From: "a0", To: "b0", Size: 60, Payload: &wire.Packet{
			Header: wire.Header{ConnID: 1, Multipath: true, PacketNumber: pn},
			Frames: []wire.Frame{&wire.PingFrame{}},
		}})
		if len(nw.sent) == before { // in order: the ACK would wait for a second packet
			p.ackMgr.ForceAck()
			c.trySend()
		}
		if len(nw.sent) != before+1 {
			t.Fatalf("pn %d provoked %d packets, want 1", pn, len(nw.sent)-before)
		}
		ack, ok := nw.sent[before].Payload.(*wire.Packet).Frames[0].(*wire.AckFrame)
		if !ok {
			t.Fatalf("pn %d: no ACK frame in the answer", pn)
		}
		return ack
	}
	first := ackOf(0)
	second := ackOf(5) // a gap: the next ACK has two ranges
	if len(second.Ranges) != 2 {
		t.Fatalf("second ACK has ranges %v, want two", second.Ranges)
	}
	if len(first.Ranges) != 1 || first.Ranges[0] != (wire.AckRange{Smallest: 0, Largest: 0}) {
		t.Fatalf("first ACK reads %v after the second was built, want [{0 0}]", first.Ranges)
	}
	if first == second || &first.Ranges[0] == &second.Ranges[1] {
		t.Fatal("two packets share one ACK frame or its ranges")
	}
}

// TestCopiesOfOnePacketShareNoFrame: a duplicated packet and a
// tail-reinjected one are each recorded on a second path from frames
// another SentPacket already holds. The two records must own a STREAM
// frame each, so that settling them in opposite ways — the copy acked,
// the original lost — reads each one's own frame: the stream counts its
// data delivered, queues nothing for retransmission, and the record that
// is still open reads as it did when it was sent.
func TestCopiesOfOnePacketShareNoFrame(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail bool
		send func(c *Conn, p0, p1 *Path)
	}{
		{"duplicated", false, func(c *Conn, p0, p1 *Path) {
			feedRTT(p0, 30*time.Millisecond) // path 1 has no sample: duplicate onto it
			c.trySend()
			if c.Stats.DuplicatedPackets != 1 {
				t.Fatalf("%d packets duplicated, want 1", c.Stats.DuplicatedPackets)
			}
		}},
		{"tail-reinjected", true, func(c *Conn, p0, p1 *Path) {
			feedRTT(p0, 80*time.Millisecond)
			feedRTT(p1, 20*time.Millisecond) // the faster path rescues the slower one's tail
			frames, payload, _ := c.packFrames(p0)
			c.sendPacket(p0, frames, payload, false, true)
			c.sendTailReinjection()
			if c.Stats.TailReinjections != 1 {
				t.Fatalf("%d packets reinjected, want 1", c.Stats.TailReinjections)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.TailReinjection = tc.tail
			c := newTestConn(t, cfg)
			p0, p1 := c.paths[0], c.paths[1]
			s := c.OpenStream()
			s.send.WriteSynthetic(1000)
			s.send.Close()
			tc.send(c, p0, p1)

			orig, dup := p0.space.Outstanding(), p1.space.Outstanding()
			if len(orig) != 1 || len(dup) != 1 {
				t.Fatalf("%d and %d packets outstanding, want one on each path", len(orig), len(dup))
			}
			fo, fd := orig[0].Frames[0].(*wire.StreamFrame), dup[0].Frames[0].(*wire.StreamFrame)
			if fo == fd {
				t.Fatal("the two SentPackets share one STREAM frame")
			}
			for i := range c.txStreams[:cap(c.txStreams)] {
				if scratch := &c.txStreams[:cap(c.txStreams)][i]; fo == scratch || fd == scratch {
					t.Fatal("a SentPacket holds the connection's send scratch")
				}
			}
			sent := *fo
			if sent.Offset != 0 || sent.Len() != 1000 || !sent.Fin || fd.Offset != 0 || fd.Len() != 1000 || !fd.Fin {
				t.Fatalf("recorded frames read %+v and %+v, want 1000 bytes at 0 with FIN", *fo, *fd)
			}

			c.handleAck(p1, &wire.AckFrame{PathID: 1, Ranges: []wire.AckRange{{Smallest: dup[0].PN, Largest: dup[0].PN}}})
			if fo.Offset != sent.Offset || fo.Len() != sent.Len() || fo.Fin != sent.Fin {
				t.Fatalf("settling the copy changed the original's frame: %+v, was %+v", *fo, sent)
			}
			c.onPathRTO(p0)
			if c.Stats.PacketsLost != 1 {
				t.Fatalf("%d packets lost, want the original", c.Stats.PacketsLost)
			}
			if s.send.HasData() {
				t.Fatal("data acked through the copy was queued again when the original was lost")
			}
		})
	}
}
