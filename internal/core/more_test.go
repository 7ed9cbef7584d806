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

// batchNet is a carrier the test drives by hand: Send only queues, and
// the test decides which datagram reaches its handler when, and whether
// it carries netem.Datagram.More — the way live.Driver injects a batch
// at one clock instant. Struct mode, so a queued datagram's frames can
// be read off its *wire.Packet.
type batchNet struct {
	clock    *sim.Clock
	handlers map[netem.Addr]netem.Handler
	queue    []netem.Datagram
}

func newBatchNet() *batchNet {
	return &batchNet{clock: sim.NewClock(), handlers: make(map[netem.Addr]netem.Handler)}
}

func (n *batchNet) Send(dg netem.Datagram)                 { n.queue = append(n.queue, dg) }
func (n *batchNet) Register(a netem.Addr, h netem.Handler) { n.handlers[a] = h }
func (n *batchNet) Clock() *sim.Clock                      { return n.clock }
func (n *batchNet) deliver(dg netem.Datagram, more bool) {
	dg.More = more
	n.handlers[dg.To].HandleDatagram(dg)
}
func (n *batchNet) take() (out []netem.Datagram) { out, n.queue = n.queue, nil; return out }
func (n *batchNet) now() time.Duration           { return n.clock.Now().Duration() }
func packetOf(t *testing.T, dg netem.Datagram) *wire.Packet {
	t.Helper()
	p, ok := dg.Payload.(*wire.Packet)
	if !ok {
		t.Fatalf("datagram %s->%s carries no *wire.Packet", dg.From, dg.To)
	}
	return p
}

// settle delivers queued datagrams one at a time without More — every
// datagram its own clock step, as netem does — and lets delayed-ack
// timers fire, until ok holds and nothing is queued.
func (n *batchNet) settle(t *testing.T, ok func() bool) {
	t.Helper()
	for i := 0; i < 200; i++ {
		for _, dg := range n.take() {
			n.deliver(dg, false)
		}
		if len(n.queue) == 0 {
			if ok() {
				return
			}
			if err := n.clock.RunUntil(n.clock.Now().Add(30 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Fatal("connections did not settle")
}

// ackFramesByPath counts the ACK frames in dgs per acknowledged path.
func ackFramesByPath(t *testing.T, dgs []netem.Datagram) map[wire.PathID]int {
	t.Helper()
	acks := make(map[wire.PathID]int)
	for _, dg := range dgs {
		for _, f := range packetOf(t, dg).Frames {
			if a, ok := f.(*wire.AckFrame); ok {
				acks[a.PathID]++
			}
		}
	}
	return acks
}

var (
	moreClientAddrs = []netem.Addr{"c0", "c1"}
	moreServerAddrs = []netem.Addr{"s0", "s1"}
)

// moreHarness is a two-path client and a GET server on a batchNet, with
// the handshake done, both paths open, and the server's first flight of
// a response queued but not delivered.
type moreHarness struct {
	net    *batchNet
	lis    *core.Listener
	client *core.Conn
	flight []netem.Datagram // server -> client, both paths
}

func newMoreHarness(t *testing.T) *moreHarness {
	t.Helper()
	cfg := core.DefaultConfig()
	h := &moreHarness{net: newBatchNet()}
	h.lis = core.Listen(h.net, cfg, moreServerAddrs)
	apps.NewGetServer(h.lis)
	h.client = core.Dial(h.net, cfg, 0xa, moreClientAddrs, moreServerAddrs)
	h.net.settle(t, func() bool {
		return h.client.HandshakeComplete() && len(h.client.Paths()) == 2 && len(h.lis.Conns()) == 1 &&
			len(h.lis.Conns()[0].Paths()) == 2
	})
	apps.NewGetClient(h.client, 1<<20, h.net.now, func(apps.GetResult) {})
	for _, dg := range h.net.take() { // the request, to the server
		h.net.deliver(dg, false)
	}
	h.flight = h.net.take()
	perPath := make(map[wire.PathID]int)
	for _, dg := range h.flight {
		perPath[packetOf(t, dg).Header.PathID]++
	}
	if perPath[0] < 2 || perPath[1] < 2 {
		t.Fatalf("first flight %v does not exercise both paths", perPath)
	}
	return h
}

func (h *moreHarness) stream() *core.Stream { return h.client.StreamByID(core.FirstClientStream) }

// TestMoreDefersReactionToLastDatagram: a batch delivered at one clock
// instant is consumed datagram by datagram — stream bytes arrive, the
// application hears of them — but nothing leaves before the last
// datagram, and then every path is acknowledged by exactly one ACK
// frame. Delivered without More, the same flight is acknowledged every
// second packet.
func TestMoreDefersReactionToLastDatagram(t *testing.T) {
	h := newMoreHarness(t)
	last := len(h.flight) - 1
	for i, dg := range h.flight[:last] {
		h.net.deliver(dg, true)
		if len(h.net.queue) != 0 {
			t.Fatalf("datagram %d of %d (More) made %d packets leave", i, len(h.flight), len(h.net.queue))
		}
	}
	if s := h.stream(); s == nil || s.BytesReceived() < uint64(last/2)*1000 {
		t.Fatalf("%d datagrams under More were not consumed", last)
	}
	h.net.deliver(h.flight[last], false)
	acks := ackFramesByPath(t, h.net.take())
	if acks[0] != 1 || acks[1] != 1 || len(acks) != 2 {
		t.Fatalf("ACK frames per path after the batch = %v, want exactly one for each of paths 0 and 1", acks)
	}

	// The control: one reaction per datagram.
	h = newMoreHarness(t)
	for _, dg := range h.flight {
		h.net.deliver(dg, false)
	}
	each := ackFramesByPath(t, h.net.take())
	if each[0] < 2 || each[1] < 2 {
		t.Fatalf("ACK frames per path without More = %v, want several", each)
	}
}

// junkPayload is a payload no endpoint understands.
type junkPayload struct{}

// TestLastDatagramOfBatchAlwaysReleases: what was held under More is
// released by the step's last datagram whatever becomes of it.
func TestLastDatagramOfBatchAlwaysReleases(t *testing.T) {
	cases := map[string]func(h *moreHarness) netem.Datagram{
		"undecodable bytes": func(h *moreHarness) netem.Datagram {
			return core.RawDatagram(moreServerAddrs[0], moreClientAddrs[0], []byte{0xff})
		},
		"unknown payload": func(h *moreHarness) netem.Datagram {
			return netem.Datagram{From: moreServerAddrs[0], To: moreClientAddrs[0], Size: 40, Payload: junkPayload{}}
		},
		"duplicate": func(h *moreHarness) netem.Datagram { return h.flight[0] },
		"another connection's": func(h *moreHarness) netem.Datagram {
			p := &wire.Packet{Header: wire.Header{ConnID: 0xb, PacketNumber: 1}, Frames: []wire.Frame{&wire.PingFrame{}}}
			return netem.Datagram{From: moreServerAddrs[0], To: moreClientAddrs[0], Size: len(p.EncodeTo(nil, nil)), Payload: p}
		},
	}
	for name, final := range cases {
		t.Run(name, func(t *testing.T) {
			h := newMoreHarness(t)
			for _, dg := range h.flight {
				h.net.deliver(dg, true)
			}
			if len(h.net.queue) != 0 {
				t.Fatalf("%d packets left under More", len(h.net.queue))
			}
			h.net.deliver(final(h), false)
			acks := ackFramesByPath(t, h.net.take())
			if acks[0] != 1 || acks[1] != 1 {
				t.Fatalf("ACK frames per path after the final datagram = %v, want one each", acks)
			}
		})
	}
}

// TestFailPathsOnDuringBatchSendsAtOnce: deferral lasts only as long as
// HandleDatagram. A socket failure reported between two datagrams of a
// batch is not a datagram; the PATHS frame it queues leaves at once,
// and takes the held acknowledgments along.
func TestFailPathsOnDuringBatchSendsAtOnce(t *testing.T) {
	h := newMoreHarness(t)
	for _, dg := range h.flight[:len(h.flight)-1] {
		h.net.deliver(dg, true)
	}
	if n := h.client.FailPathsOn(moreClientAddrs[1]); n != 1 {
		t.Fatalf("FailPathsOn marked %d paths, want 1", n)
	}
	out := h.net.take()
	paths := 0
	for _, dg := range out {
		for _, f := range packetOf(t, dg).Frames {
			if _, ok := f.(*wire.PathsFrame); ok {
				paths++
			}
		}
	}
	if paths == 0 {
		t.Fatalf("no PATHS frame among the %d packets sent on the failure", len(out))
	}
	if acks := ackFramesByPath(t, out); acks[0] != 1 || acks[1] != 1 {
		t.Fatalf("ACK frames sent on the failure = %v, want one per path", acks)
	}
	// Nothing is owed any more: the batch's last datagram is a plain one.
	h.net.deliver(h.flight[len(h.flight)-1], false)
	if acks := ackFramesByPath(t, h.net.take()); acks[0]+acks[1] > 2 {
		t.Fatalf("last datagram after the failure sent ACK frames %v", acks)
	}
}

// TestListenerFailPathsOn: a dying server socket reaches every
// accepted connection through the listener, and marks exactly the path
// bound to it potentially failed, once. A single-path listener leaves
// its connections alone: with nowhere to steer, PF would only hold back
// retransmissions.
func TestListenerFailPathsOn(t *testing.T) {
	h := newMoreHarness(t)
	if n := h.lis.FailPathsOn(moreServerAddrs[1]); n != 1 {
		t.Fatalf("FailPathsOn marked %d paths, want 1", n)
	}
	for _, p := range h.lis.Conns()[0].Paths() {
		if p.PotentiallyFailed() != (p.Local == moreServerAddrs[1]) {
			t.Fatalf("path %d on %s: potentially failed = %v", p.ID, p.Local, p.PotentiallyFailed())
		}
	}
	if n := h.lis.FailPathsOn(moreServerAddrs[1]); n != 0 {
		t.Fatalf("second FailPathsOn marked %d paths, want 0", n)
	}

	cfg := core.DefaultSinglePathConfig()
	net := newBatchNet()
	lis := core.Listen(net, cfg, moreServerAddrs[:1])
	c := core.Dial(net, cfg, 0xa, []netem.Addr{"a0"}, moreServerAddrs[:1])
	net.settle(t, func() bool { return c.HandshakeComplete() && len(lis.Conns()) == 1 })
	if n := lis.FailPathsOn(moreServerAddrs[0]); n != 0 {
		t.Fatalf("single-path listener marked %d paths, want 0", n)
	}
}

// TestListenerReleasesConnectionsLeftHolding: the carrier sees one
// handler, the listener, so a connection's datagrams may all carry More
// and the step's last datagram belong to another connection — or to
// none. The listener's own last datagram releases every connection.
func TestListenerReleasesConnectionsLeftHolding(t *testing.T) {
	stray := &wire.Packet{Header: wire.Header{ConnID: 0x5eed, PacketNumber: 1}, Frames: []wire.Frame{&wire.PingFrame{}}}
	finals := map[string]func(fromB []netem.Datagram) netem.Datagram{
		"another connection's datagram": func(fromB []netem.Datagram) netem.Datagram { return fromB[0] },
		"a stray": func([]netem.Datagram) netem.Datagram {
			return netem.Datagram{From: "x", To: moreServerAddrs[0], Size: len(stray.EncodeTo(nil, nil)), Payload: stray}
		},
		"undecodable bytes": func([]netem.Datagram) netem.Datagram {
			return core.RawDatagram("x", moreServerAddrs[0], []byte{0xff})
		},
	}
	for name, final := range finals {
		t.Run(name, func(t *testing.T) {
			cfg := core.DefaultSinglePathConfig()
			net := newBatchNet()
			lis := core.Listen(net, cfg, moreServerAddrs[:1])
			apps.NewGetServer(lis)
			a := core.Dial(net, cfg, 0xa, []netem.Addr{"a0"}, moreServerAddrs[:1])
			b := core.Dial(net, cfg, 0xb, []netem.Addr{"b0"}, moreServerAddrs[:1])
			net.settle(t, func() bool { return a.HandshakeComplete() && b.HandshakeComplete() })

			apps.NewGetClient(a, 64<<10, net.now, func(apps.GetResult) {})
			fromA := net.take()
			apps.NewGetClient(b, 64<<10, net.now, func(apps.GetResult) {})
			fromB := net.take()
			if len(fromA) == 0 || len(fromB) == 0 {
				t.Fatalf("requests: %d datagrams from A, %d from B", len(fromA), len(fromB))
			}

			for _, dg := range fromA {
				net.deliver(dg, true)
			}
			if len(net.queue) != 0 {
				t.Fatalf("A's request under More made %d packets leave", len(net.queue))
			}
			net.deliver(final(fromB), false)
			toA := 0
			for _, dg := range net.take() {
				if packetOf(t, dg).Header.ConnID == 0xa && dg.To == "a0" {
					toA++
				}
			}
			if toA < 2 {
				t.Fatalf("%d packets of A's response left after the listener's last datagram, want the first flight", toA)
			}
		})
	}
}

// TestCloseUnderMoreSendsWhatIsOwedFirst: an application that answers a
// request and closes the connection in one callback, on a datagram
// delivered under More, still gets its answer out ahead of the
// CONNECTION_CLOSE — the close does not wait for, or discard, the held
// send.
func TestCloseUnderMoreSendsWhatIsOwedFirst(t *testing.T) {
	cfg := core.DefaultSinglePathConfig()
	net := newBatchNet()
	lis := core.Listen(net, cfg, moreServerAddrs[:1])
	lis.OnConnection(func(c *core.Conn) {
		c.OnStreamOpen(func(s *core.Stream) {
			s.OnData(func() {
				s.Read(s.Readable())
				s.WriteSynthetic(3000)
				c.Close()
			})
		})
	})
	a := core.Dial(net, cfg, 0xa, []netem.Addr{"a0"}, moreServerAddrs[:1])
	net.settle(t, func() bool { return a.HandshakeComplete() })
	apps.NewGetClient(a, 3000, net.now, func(apps.GetResult) {})
	for _, dg := range net.take() {
		net.deliver(dg, true)
	}
	var streamBytes, closesAt []int
	out := net.take()
	for i, dg := range out {
		for _, f := range packetOf(t, dg).Frames {
			switch f := f.(type) {
			case *wire.StreamFrame:
				streamBytes = append(streamBytes, f.Len())
			case *wire.ConnectionCloseFrame:
				closesAt = append(closesAt, i)
			}
		}
	}
	sum := 0
	for _, n := range streamBytes {
		sum += n
	}
	if sum != 3000 || len(closesAt) != 1 || closesAt[0] != len(out)-1 {
		t.Fatalf("under More: STREAM frames %v, CONNECTION_CLOSE in packets %v of %d; want 3000 bytes, then one close", streamBytes, closesAt, len(out))
	}
	if len(lis.Conns()) != 0 {
		t.Fatal("listener kept the closed connection")
	}
	// The batch's last datagram finds nothing left to release.
	net.deliver(core.RawDatagram("x", moreServerAddrs[0], []byte{0xff}), false)
	if len(net.queue) != 0 {
		t.Fatalf("%d packets left after the close", len(net.queue))
	}
}
