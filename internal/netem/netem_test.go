package netem

import (
	"testing"
	"time"

	"mpquic/internal/sim"
)

type testPayload int

func dg(from, to Addr, size int) Datagram {
	return Datagram{From: from, To: to, Size: size, Payload: testPayload(size)}
}

func TestLinkDeliversWithSerializationAndPropagation(t *testing.T) {
	clock := sim.NewClock()
	var arrived sim.Time
	// 8 Mbps -> 1 byte per microsecond. 1000-byte packet -> 1 ms
	// serialization; 10 ms propagation.
	l := NewLink(clock, sim.NewRand(1), "t", LinkConfig{RateMbps: 8, Delay: 10 * time.Millisecond, QueueDelay: time.Second},
		func(d Datagram) { arrived = clock.Now() })
	l.Send(dg("a", "b", 1000))
	clock.Run()
	want := sim.Time(11 * time.Millisecond)
	if arrived != want {
		t.Fatalf("arrived at %v, want %v", arrived, want)
	}
}

func TestLinkBackToBackSerialization(t *testing.T) {
	clock := sim.NewClock()
	var times []sim.Time
	l := NewLink(clock, sim.NewRand(1), "t", LinkConfig{RateMbps: 8, Delay: 0, QueueDelay: time.Second},
		func(d Datagram) { times = append(times, clock.Now()) })
	l.Send(dg("a", "b", 1000))
	l.Send(dg("a", "b", 1000))
	l.Send(dg("a", "b", 1000))
	clock.Run()
	if len(times) != 3 {
		t.Fatalf("delivered %d, want 3", len(times))
	}
	for i, want := range []sim.Time{sim.Time(1 * time.Millisecond), sim.Time(2 * time.Millisecond), sim.Time(3 * time.Millisecond)} {
		if times[i] != want {
			t.Fatalf("packet %d at %v, want %v", i, times[i], want)
		}
	}
}

func TestLinkTailDrop(t *testing.T) {
	clock := sim.NewClock()
	delivered := 0
	// Queue bound: 8 Mbps * 5 ms = 5000 bytes.
	l := NewLink(clock, sim.NewRand(1), "t", LinkConfig{RateMbps: 8, Delay: 0, QueueDelay: 5 * time.Millisecond},
		func(d Datagram) { delivered++ })
	for i := 0; i < 10; i++ {
		l.Send(dg("a", "b", 1000))
	}
	clock.Run()
	if delivered != 5 {
		t.Fatalf("delivered %d, want 5 (queue bound)", delivered)
	}
	if l.Stats.QueueDrops != 5 {
		t.Fatalf("queue drops %d, want 5", l.Stats.QueueDrops)
	}
}

func TestLinkQueueFloorTwoMTU(t *testing.T) {
	clock := sim.NewClock()
	l := NewLink(clock, sim.NewRand(1), "t", LinkConfig{RateMbps: 1, Delay: 0, QueueDelay: 0}, func(d Datagram) {})
	if l.QueueCapacityBytes() != 2*MTU {
		t.Fatalf("queue cap %d, want %d", l.QueueCapacityBytes(), 2*MTU)
	}
}

func TestLinkRandomLossRate(t *testing.T) {
	clock := sim.NewClock()
	delivered := 0
	l := NewLink(clock, sim.NewRand(7), "t", LinkConfig{RateMbps: 1000, Delay: 0, QueueDelay: time.Second, LossRate: 0.25},
		func(d Datagram) { delivered++ })
	const n = 20000
	for i := 0; i < n; i++ {
		l.Send(dg("a", "b", 100))
	}
	clock.Run()
	rate := 1 - float64(delivered)/n
	if rate < 0.22 || rate > 0.28 {
		t.Fatalf("loss rate %v, want ~0.25", rate)
	}
	if l.Stats.RandomDrops != uint64(n-delivered) {
		t.Fatalf("stats mismatch: drops=%d delivered=%d", l.Stats.RandomDrops, delivered)
	}
}

func TestLinkDown(t *testing.T) {
	clock := sim.NewClock()
	delivered := 0
	l := NewLink(clock, sim.NewRand(1), "t", LinkConfig{RateMbps: 8, Delay: 0, QueueDelay: time.Second},
		func(d Datagram) { delivered++ })
	l.SetDown(true)
	l.Send(dg("a", "b", 100))
	l.SetDown(false)
	l.Send(dg("a", "b", 100))
	clock.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}
}

func TestLinkRejectsOversizedDatagram(t *testing.T) {
	clock := sim.NewClock()
	l := NewLink(clock, sim.NewRand(1), "t", LinkConfig{RateMbps: 8, QueueDelay: time.Second}, func(d Datagram) {})
	defer func() {
		if recover() == nil {
			t.Fatal("oversized datagram accepted")
		}
	}()
	l.Send(dg("a", "b", MTU+1))
}

func TestNetworkRoutesAndDrops(t *testing.T) {
	clock := sim.NewClock()
	n := New(clock, sim.NewRand(1))
	got := map[Addr]int{}
	n.Register("b", HandlerFunc(func(d Datagram) { got["b"]++ }))
	n.Register("a", HandlerFunc(func(d Datagram) { got["a"]++ }))
	n.Connect("a", "b", LinkConfig{RateMbps: 8, QueueDelay: time.Second})
	n.Send(dg("a", "b", 100))
	n.Send(dg("b", "a", 100))
	n.Send(dg("a", "c", 100)) // no route
	clock.Run()
	if got["b"] != 1 || got["a"] != 1 {
		t.Fatalf("deliveries: %v", got)
	}
}

func TestTwoPathTopologyDisjoint(t *testing.T) {
	clock := sim.NewClock()
	tp := NewTwoPath(clock, sim.NewRand(3), [2]PathSpec{
		{CapacityMbps: 10, RTT: 20 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
		{CapacityMbps: 5, RTT: 40 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
	})
	var arrivals []sim.Time
	tp.Net.Register(tp.ServerAddrs[0], HandlerFunc(func(d Datagram) { arrivals = append(arrivals, clock.Now()) }))
	tp.Net.Register(tp.ServerAddrs[1], HandlerFunc(func(d Datagram) { arrivals = append(arrivals, clock.Now()) }))
	tp.Net.Send(dg(tp.ClientAddrs[0], tp.ServerAddrs[0], 1250)) // 1 ms tx + 10 ms prop
	tp.Net.Send(dg(tp.ClientAddrs[1], tp.ServerAddrs[1], 1250)) // 2 ms tx + 20 ms prop
	// Cross-path traffic has no route.
	tp.Net.Send(dg(tp.ClientAddrs[0], tp.ServerAddrs[1], 100))
	clock.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals %d, want 2", len(arrivals))
	}
	if arrivals[0] != sim.Time(11*time.Millisecond) || arrivals[1] != sim.Time(22*time.Millisecond) {
		t.Fatalf("arrival times %v", arrivals)
	}
	if tp.Net.Route(tp.ClientAddrs[0], tp.ServerAddrs[1]) != nil {
		t.Fatalf("cross-path traffic has a route")
	}
}

func TestKillPath(t *testing.T) {
	clock := sim.NewClock()
	tp := NewTwoPath(clock, sim.NewRand(3), [2]PathSpec{
		{CapacityMbps: 10, RTT: 10 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
		{CapacityMbps: 10, RTT: 10 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
	})
	n := 0
	tp.Net.Register(tp.ServerAddrs[0], HandlerFunc(func(d Datagram) { n++ }))
	tp.KillPath(0)
	tp.Net.Send(dg(tp.ClientAddrs[0], tp.ServerAddrs[0], 100))
	clock.Run()
	if n != 0 {
		t.Fatal("killed path delivered")
	}
}

func TestThroughputMatchesCapacity(t *testing.T) {
	// Saturate a 10 Mbps link for one emulated second; delivered bytes
	// must match capacity within a packet.
	clock := sim.NewClock()
	var bytes int
	l := NewLink(clock, sim.NewRand(1), "t", LinkConfig{RateMbps: 10, Delay: 0, QueueDelay: 20 * time.Millisecond},
		func(d Datagram) { bytes += d.Size })
	// Feed the queue at 1 packet per ms (12 Mbps offered on 10 Mbps link).
	for i := 0; i < 1000; i++ {
		at := sim.Time(time.Duration(i) * time.Millisecond)
		clock.At(at, func() { l.Send(dg("a", "b", 1500)) })
	}
	clock.RunUntil(sim.Time(time.Second))
	want := 10e6 / 8 // bytes in one second
	if f := float64(bytes) / want; f < 0.97 || f > 1.01 {
		t.Fatalf("delivered %d bytes in 1s on 10 Mbps link (ratio %v)", bytes, f)
	}
}

// TestSendRunsNoHandler pins core.DatagramSender's contract on the
// emulated carrier: a handler at the destination has not run when Send
// returns, even over a link with no delay; delivery is a clock event.
func TestSendRunsNoHandler(t *testing.T) {
	clock := sim.NewClock()
	n := New(clock, sim.NewRand(1))
	n.Connect("a", "b", LinkConfig{RateMbps: 1000, QueueDelay: time.Second})
	ran := 0
	n.Register("b", HandlerFunc(func(Datagram) { ran++ }))
	n.Send(dg("a", "b", 100))
	if ran != 0 {
		t.Fatal("the handler ran inside Send")
	}
	clock.Run()
	if ran != 1 {
		t.Fatalf("%d deliveries after the clock ran, want 1", ran)
	}
}
