package core

import (
	"testing"

	"mpquic/internal/netem"
	"mpquic/internal/sim"
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
	c := newConn(nw, RoleServer, 1, DefaultConfig(), []netem.Addr{"b0"}, []netem.Addr{"a0"})
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
