package netem

import (
	"testing"
	"time"

	"mpquic/internal/sim"
	"mpquic/internal/wire"
)

// TestEveryExitReturnsALentPacketOnce sends one lent packet through each
// way a datagram can leave the network — delivered, no handler, no
// route, link down, queue overflow, random loss. All are lent before any
// can return, so once the clock has drained the pool holds exactly as
// many carriers as were lent: none leaked, none listed twice.
func TestEveryExitReturnsALentPacketOnce(t *testing.T) {
	clock := sim.NewClock()
	n := New(clock, sim.NewRand(1))
	wide := LinkConfig{RateMbps: 8, Delay: time.Millisecond, QueueDelay: time.Second}
	n.Connect("a", "heard", wide)
	n.Connect("a", "unheard", wide)
	down, _ := n.Connect("a", "down", wide)
	down.SetDown(true)
	n.Connect("a", "narrow", LinkConfig{RateMbps: 8, QueueDelay: 0}) // holds two MTUs
	lossy := wide
	lossy.LossRate = 1
	n.Connect("a", "lossy", lossy)

	delivered := 0
	n.Register("heard", HandlerFunc(func(Datagram) { delivered++ }))
	n.Register("narrow", HandlerFunc(func(Datagram) { delivered++ }))

	dests := []Addr{"heard", "unheard", "nowhere", "down", "narrow", "narrow", "narrow", "lossy"}
	lent := make([]*wire.Packet, len(dests))
	for i := range lent {
		lent[i] = n.LendPacket()
	}
	for i, to := range dests {
		n.Send(Datagram{From: "a", To: to, Size: MTU, Payload: lent[i]})
	}
	// No route, link down and the third datagram into the narrow queue
	// have come back already.
	if got := n.carriers.Len(); got != 3 {
		t.Errorf("%d carriers back before the clock ran, want 3", got)
	}
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 3 || down.Stats.RandomDrops != 1 ||
		n.Route("a", "narrow").Stats.QueueDrops != 1 || n.Route("a", "lossy").Stats.RandomDrops != 1 {
		t.Fatalf("exits not all taken: %d delivered", delivered)
	}
	if got := n.carriers.Len(); got != len(lent) {
		t.Fatalf("%d carriers in the pool after %d were lent and all left the network", got, len(lent))
	}
	seen := make(map[*wire.Packet]bool)
	for range lent {
		p := n.LendPacket()
		if seen[p] {
			t.Fatal("one carrier lent to two senders at once")
		}
		seen[p] = true
	}
}

// TestReclaimTurnsAwayWhatIsNotOnLoan: a second return of the same
// carrier, and a packet the network never lent (a sender that keeps what
// it sends brought its own), leave the pool as it was.
func TestReclaimTurnsAwayWhatIsNotOnLoan(t *testing.T) {
	n := New(sim.NewClock(), sim.NewRand(1))
	p := n.LendPacket()
	d := Datagram{From: "a", To: "b", Size: 100, Payload: p}
	n.reclaim(d)
	n.reclaim(d)
	n.reclaim(Datagram{From: "a", To: "b", Size: 100, Payload: new(wire.Packet)})
	if got := n.carriers.Len(); got != 1 {
		t.Fatalf("pool holds %d carriers after one loan came back twice and a stranger once, want 1", got)
	}
}

// TestRegisterAndRouteChangesReachBuiltLinks: a link's sink resolved its
// handler cell when it was built and Send remembers the last route, so
// both must follow what Register (with a nil handler too) and AddRoute
// do afterwards.
func TestRegisterAndRouteChangesReachBuiltLinks(t *testing.T) {
	clock := sim.NewClock()
	n := New(clock, sim.NewRand(1))
	cfg := LinkConfig{RateMbps: 8, QueueDelay: time.Second}
	n.Connect("a", "b", cfg) // before anyone registered on b
	var first, second, detour int
	send := func() {
		n.Send(dg("a", "b", 100))
		if err := clock.Run(); err != nil {
			t.Fatal(err)
		}
	}
	n.Register("b", HandlerFunc(func(Datagram) { first++ }))
	send()
	n.Register("b", HandlerFunc(func(Datagram) { second++ }))
	send()
	n.Register("b", nil)
	send()
	n.Register("b", HandlerFunc(func(Datagram) { second++ }))
	send()
	n.AddRoute("a", "b", NewLink(clock, sim.NewRand(2), "detour", cfg, func(Datagram) { detour++ }))
	send()
	if first != 1 || second != 2 || detour != 1 {
		t.Fatalf("deliveries: first handler %d, second %d, replaced route %d; want 1, 2, 1", first, second, detour)
	}
}
