package core_test

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/core"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/wire"
)

// keepingNet decorates a Network the way bench's tracedNet does: it
// forwards everything, keeps every struct-mode packet it was sent, and
// lends nothing (the Network is a field, not embedded, so its LendPacket
// is not this sender's). Next to each packet it keeps a deep copy taken
// at Send.
type keepingNet struct {
	t      *testing.T
	inner  *netem.Network
	kept   []*wire.Packet
	atSend []wire.Packet
}

func (k *keepingNet) Clock() *sim.Clock                      { return k.inner.Clock() }
func (k *keepingNet) Register(a netem.Addr, h netem.Handler) { k.inner.Register(a, h) }
func (k *keepingNet) Send(dg netem.Datagram) {
	p, ok := dg.Payload.(*wire.Packet)
	if !ok {
		k.t.Fatalf("datagram %s->%s carries no *wire.Packet", dg.From, dg.To)
	}
	// sendPacket adds up the size from the counts its builders kept.
	if want := p.EncodedSize() + wire.UDPIPv4Overhead; dg.Size != want {
		k.t.Errorf("path %d pn %d: datagram size %d, the packet encodes to %d", p.Header.PathID, p.Header.PacketNumber, dg.Size, want)
	}
	k.kept = append(k.kept, p)
	k.atSend = append(k.atSend, deepCopy(p))
	k.inner.Send(dg)
}

// deepCopy copies what a packet's owner may not see change: header,
// frame list, and every frame a sender builds in scratch it reuses.
// Other frames are immutable by contract and stay shared.
func deepCopy(p *wire.Packet) wire.Packet {
	c := wire.Packet{Header: p.Header, LargestAcked: p.LargestAcked}
	for _, f := range p.Frames {
		switch fr := f.(type) {
		case *wire.AckFrame:
			ack := *fr
			ack.Ranges = slices.Clone(fr.Ranges)
			f = &ack
		case *wire.StreamFrame:
			sf := *fr
			f = &sf
		}
		c.Frames = append(c.Frames, f)
	}
	return c
}

// TestNonLendingSenderKeepsItsPackets walks one lossy MPQUIC download
// through a sender that does not lend. Every packet it was handed is a
// fresh one nobody recycles: after the whole transfer — thousands of
// later packets built in the same scratch, losses, retransmissions,
// duplicates — each still reads as it did at Send. On the way it pins
// every datagram's size to its packet's encoded size.
func TestNonLendingSenderKeepsItsPackets(t *testing.T) {
	specs := symSpecs(10, 30*time.Millisecond)
	specs[0].LossRate = 0.02
	specs[1].LossRate = 0.02
	clock := sim.NewClock()
	clock.Limit = 50_000_000
	tp := netem.NewTwoPath(clock, sim.NewRand(42), specs)
	nw := &keepingNet{t: t, inner: tp.Net}
	cfg := core.DefaultConfig()
	apps.NewGetServer(core.Listen(nw, cfg, tp.ServerAddrs[:]))
	client := core.Dial(nw, cfg, 0xabcd, tp.ClientAddrs[:], tp.ServerAddrs[:])
	var res *apps.GetResult
	apps.NewGetClient(client, 1<<20, func() time.Duration { return clock.Now().Duration() },
		func(r apps.GetResult) { res = &r })
	if err := clock.RunUntil(sim.Time(300 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("download did not finish")
	}
	var acks, streams int
	for i, p := range nw.kept {
		want := &nw.atSend[i]
		if p.Header != want.Header || p.LargestAcked != want.LargestAcked || !reflect.DeepEqual(p.Frames, want.Frames) {
			t.Fatalf("packet %d (path %d pn %d) changed after Send:\n got %+v\nwant %+v", i, want.Header.PathID, want.Header.PacketNumber, p, want)
		}
		for _, f := range p.Frames {
			switch f.(type) {
			case *wire.AckFrame:
				acks++
			case *wire.StreamFrame:
				streams++
			}
		}
	}
	if len(nw.kept) < 1000 || acks < 100 || streams < 700 {
		t.Fatalf("walked %d packets with %d ACK and %d STREAM frames: not the transfer this test is about", len(nw.kept), acks, streams)
	}
}
