package netem

import (
	"testing"
	"time"

	"mpquic/internal/sim"
)

func TestLinkStatsAccounting(t *testing.T) {
	clock := sim.NewClock()
	delivered := uint64(0)
	l := NewLink(clock, sim.NewRand(2), "t",
		LinkConfig{RateMbps: 8, Delay: 0, QueueDelay: 3 * time.Millisecond}, func(Datagram) { delivered++ })
	for i := 0; i < 10; i++ {
		l.Send(dg("a", "b", 1000))
	}
	clock.Run()
	if delivered+l.Stats.QueueDrops != 10 {
		t.Fatalf("%d delivered, stats %+v: don't add up", delivered, l.Stats)
	}
	if l.Stats.QueueDrops == 0 {
		t.Fatal("expected tail drops with a 3 ms queue")
	}
}

func TestQueueBytesDrainOverTime(t *testing.T) {
	clock := sim.NewClock()
	l := NewLink(clock, sim.NewRand(1), "t",
		LinkConfig{RateMbps: 8, Delay: 0, QueueDelay: time.Second}, func(Datagram) {})
	l.Send(dg("a", "b", 1000))
	l.Send(dg("a", "b", 1000))
	if l.queueBytes != 2000 {
		t.Fatalf("queue %d", l.queueBytes)
	}
	clock.RunUntil(sim.Time(1500 * time.Microsecond)) // 1.5 packets serialized
	if l.queueBytes != 1000 {
		t.Fatalf("queue %d after partial drain", l.queueBytes)
	}
	clock.Run()
	if l.queueBytes != 0 {
		t.Fatalf("queue %d after full drain", l.queueBytes)
	}
}

func TestRouteLookup(t *testing.T) {
	clock := sim.NewClock()
	n := New(clock, sim.NewRand(1))
	fwd, rev := n.Connect("a", "b", LinkConfig{RateMbps: 1, QueueDelay: time.Second})
	if n.Route("a", "b") != fwd || n.Route("b", "a") != rev {
		t.Fatal("route lookup broken")
	}
	if n.Route("a", "c") != nil {
		t.Fatal("phantom route")
	}
	if fwd.name == "" || fwd.Config().RateMbps != 1 {
		t.Fatal("link accessors")
	}
}
