package netem

import (
	"testing"
	"time"

	"mpquic/internal/sim"
	"mpquic/internal/trace"
)

// dropEveryOther is a deterministic LossModel for hook tests.
type dropEveryOther struct{ n int }

func (m *dropEveryOther) Drop(int) bool {
	m.n++
	return m.n%2 == 0
}

func TestLossModelReplacesBernoulliDraw(t *testing.T) {
	clock := sim.NewClock()
	delivered := 0
	// LossRate 1 would drop everything under the built-in draw; the
	// installed model must take precedence.
	l := NewLink(clock, sim.NewRand(1), "t", LinkConfig{RateMbps: 8, Delay: 0, QueueDelay: time.Second, LossRate: 1},
		func(Datagram) { delivered++ })
	l.SetLossModel(&dropEveryOther{})
	for i := 0; i < 10; i++ {
		l.Send(dg("a", "b", 1000))
	}
	clock.Run()
	if delivered != 5 {
		t.Fatalf("delivered %d, want 5 (model drops every other packet)", delivered)
	}
	if l.Stats.RandomDrops != 5 {
		t.Fatalf("RandomDrops %d, want 5", l.Stats.RandomDrops)
	}
	// Removing the model restores the built-in draw (LossRate 1 -> all drop).
	l.SetLossModel(nil)
	l.Send(dg("a", "b", 1000))
	clock.Run()
	if delivered != 5 {
		t.Fatalf("delivered %d after model removal with LossRate=1, want 5", delivered)
	}
}

func TestSetRateRederivesRateAndQueue(t *testing.T) {
	clock := sim.NewClock()
	var times []sim.Time
	l := NewLink(clock, sim.NewRand(1), "t", LinkConfig{RateMbps: 8, Delay: 0, QueueDelay: time.Second},
		func(Datagram) { times = append(times, clock.Now()) })
	// 8 Mbps: 1000 B serialize in 1 ms. Halve the rate mid-run: the
	// next packet takes 2 ms.
	l.Send(dg("a", "b", 1000))
	clock.At(sim.Time(time.Millisecond), func() {
		l.SetRate(4)
		l.Send(dg("a", "b", 1000))
	})
	clock.Run()
	want := []sim.Time{sim.Time(1 * time.Millisecond), sim.Time(3 * time.Millisecond)}
	if len(times) != 2 || times[0] != want[0] || times[1] != want[1] {
		t.Fatalf("delivery times %v, want %v", times, want)
	}
	if got := l.QueueCapacityBytes(); got != 500_000 {
		t.Fatalf("queue capacity %dB after 4 Mbps x 1s SetRate, want 500000B", got)
	}
}

func TestSetRatePanicsOnNonPositiveRate(t *testing.T) {
	clock := sim.NewClock()
	l := NewLink(clock, sim.NewRand(1), "t", LinkConfig{RateMbps: 8, QueueDelay: time.Second}, func(Datagram) {})
	defer func() {
		if recover() == nil {
			t.Fatal("SetRate accepted rate 0")
		}
	}()
	l.SetRate(0)
}

func TestSetDownEmitsTransitionEventsOnce(t *testing.T) {
	clock := sim.NewClock()
	l := NewLink(clock, sim.NewRand(1), "t", LinkConfig{RateMbps: 8, QueueDelay: time.Second}, func(Datagram) {})
	ctr := trace.NewCounter()
	l.SetTracer(ctr)
	l.SetDown(true)
	l.SetDown(true) // idempotent: no second event
	l.SetDown(false)
	l.SetDown(false)
	if ctr.Counts[trace.LinkDown] != 1 || ctr.Counts[trace.LinkUp] != 1 {
		t.Fatalf("events down=%d up=%d, want 1/1", ctr.Counts[trace.LinkDown], ctr.Counts[trace.LinkUp])
	}
}

func TestQueueBoundAdmitsWhatFits(t *testing.T) {
	clock := sim.NewClock()
	delivered := 0
	l := NewLink(clock, sim.NewRand(1), "t", LinkConfig{RateMbps: 8, Delay: 0, QueueDelay: 5 * time.Millisecond},
		func(Datagram) { delivered++ })
	for i := 0; i < 10; i++ {
		l.Send(dg("a", "b", 1000)) // queue bound 5000 B: half are tail-dropped
	}
	clock.Run()
	if delivered != 5 {
		t.Fatalf("%d delivered, want the 5 that fit the queue", delivered)
	}
	if l.Stats.QueueDrops != 5 {
		t.Fatalf("QueueDrops %d, want 5", l.Stats.QueueDrops)
	}
}

func TestTopologySetTracerCoversAllLinks(t *testing.T) {
	clock := sim.NewClock()
	tp := NewTwoPath(clock, sim.NewRand(1), [2]PathSpec{
		{CapacityMbps: 10, RTT: 30 * time.Millisecond, QueueDelay: 100 * time.Millisecond},
		{CapacityMbps: 10, RTT: 30 * time.Millisecond, QueueDelay: 100 * time.Millisecond},
	})
	ctr := trace.NewCounter()
	tp.SetTracer(ctr)
	tp.KillPath(0)
	tp.KillPath(1)
	if ctr.Counts[trace.LinkDown] != 4 {
		t.Fatalf("link_down events %d, want 4 (both directions of both paths)", ctr.Counts[trace.LinkDown])
	}
}

func TestPathLinksReturnsBothDirections(t *testing.T) {
	clock := sim.NewClock()
	tp := NewTwoPath(clock, sim.NewRand(1), [2]PathSpec{
		{CapacityMbps: 10, RTT: 30 * time.Millisecond, QueueDelay: 100 * time.Millisecond},
		{CapacityMbps: 10, RTT: 30 * time.Millisecond, QueueDelay: 100 * time.Millisecond},
	})
	for i := 0; i < 2; i++ {
		ls := tp.PathLinks(i)
		if len(ls) != 2 || ls[0] != tp.Fwd[i] || ls[1] != tp.Rev[i] {
			t.Fatalf("PathLinks(%d) = %v, want [Fwd Rev]", i, ls)
		}
	}
}
