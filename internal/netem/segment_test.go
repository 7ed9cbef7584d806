package netem_test

import (
	"testing"
	"time"

	"mpquic/internal/cc"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/tcpsim"
)

// TestEveryExitReturnsALentSegmentOnce is the TCP family's counterpart of
// TestEveryExitReturnsALentPacketOnce: one segment a flow lent leaves the
// network through each exit — delivered, no handler, no route, link
// down, queue overflow, random loss. Once the clock has drained, the
// flow lends exactly those segments again, each to one sender: none
// leaked (the flow would make a new one), none listed twice (one would
// be lent twice).
func TestEveryExitReturnsALentSegmentOnce(t *testing.T) {
	clock := sim.NewClock()
	n := netem.New(clock, sim.NewRand(1))
	wide := netem.LinkConfig{RateMbps: 8, Delay: time.Millisecond, QueueDelay: time.Second}
	n.Connect("a", "heard", wide)
	n.Connect("a", "unheard", wide)
	down, _ := n.Connect("a", "down", wide)
	down.SetDown(true)
	n.Connect("a", "narrow", netem.LinkConfig{RateMbps: 8, QueueDelay: 0}) // holds two MTUs
	lossy := wide
	lossy.LossRate = 1
	n.Connect("a", "lossy", lossy)

	delivered := 0
	n.Register("heard", netem.HandlerFunc(func(netem.Datagram) { delivered++ }))
	n.Register("narrow", netem.HandlerFunc(func(netem.Datagram) { delivered++ }))

	ctl := cc.NewCubic(tcpsim.MSS, func() time.Duration { return clock.Now().Duration() })
	f := tcpsim.NewFlow(n, 0, "a", "heard", ctl, false, func(*tcpsim.Segment) {})
	dests := []netem.Addr{"heard", "unheard", "nowhere", "down", "narrow", "narrow", "narrow", "lossy"}
	// All are lent before any is sent, since three exits return theirs
	// at once.
	lent := make(map[*tcpsim.Segment]bool, len(dests))
	segs := make([]*tcpsim.Segment, len(dests))
	for i := range segs {
		segs[i] = f.NewSegment()
		lent[segs[i]] = true
	}
	for i, to := range dests {
		n.Send(netem.Datagram{From: "a", To: to, Size: netem.MTU, Payload: segs[i]})
	}
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 3 || n.Dropped != 1 || down.Stats.RandomDrops != 1 ||
		n.Route("a", "narrow").Stats.QueueDrops != 1 || n.Route("a", "lossy").Stats.RandomDrops != 1 {
		t.Fatalf("exits not all taken: %d delivered, %d unrouted", delivered, n.Dropped)
	}
	for range dests {
		seg := f.NewSegment()
		if !lent[seg] {
			t.Fatal("the flow made a new segment or lent one twice: a lent segment did not come back exactly once")
		}
		delete(lent, seg)
	}

	// A second return of one segment leaves the free list as it was: the
	// flow lends that segment once more and then makes a new one.
	seg := f.NewSegment()
	seg.Return()
	seg.Return()
	if f.NewSegment() != seg {
		t.Fatal("a returned segment was not lent again")
	}
	if f.NewSegment() == seg {
		t.Fatal("a segment returned twice was lent twice")
	}
}
