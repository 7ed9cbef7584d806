package dynamics

import (
	"testing"
	"time"

	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/trace"
)

// testTarget is a one-path Target over a single real link, so change
// application (SetRate, SetDown) is exercised end to end. state follows
// the link's link_down / link_up events.
type testTarget struct {
	link  *netem.Link
	state *linkState
}

func (t testTarget) PathLinks(int) []*netem.Link { return []*netem.Link{t.link} }

func newTestTarget(clock *sim.Clock) testTarget {
	cfg := netem.LinkConfig{RateMbps: 10, Delay: 10 * time.Millisecond, QueueDelay: 100 * time.Millisecond}
	tg := testTarget{link: netem.NewLink(clock, sim.NewRand(1), "t", cfg, func(netem.Datagram) {}), state: new(linkState)}
	tg.link.SetTracer(tg.state)
	return tg
}

// linkState is a Tracer that tracks whether a link is down.
type linkState struct{ down bool }

func (s *linkState) Trace(ev trace.Event) {
	switch ev.Type {
	case trace.LinkDown:
		s.down = true
	case trace.LinkUp:
		s.down = false
	}
}

// sample records fn() at virtual time at.
func sample(clock *sim.Clock, at time.Duration, fn func()) {
	clock.At(sim.Time(at), fn)
}

func TestScriptAppliesEventsInTimestampOrder(t *testing.T) {
	clock := sim.NewClock()
	tg := newTestTarget(clock)
	// Deliberately unsorted event list; Apply must sort a copy.
	s := Script{Events: []Event{
		{At: 2 * time.Second, Change: Rate(2)},
		{At: 1 * time.Second, Change: Rate(5)},
		{At: 3 * time.Second, Change: Down(true)},
	}}
	s.Apply(clock, tg)

	var rates []float64
	for _, at := range []time.Duration{500 * time.Millisecond, 1500 * time.Millisecond, 2500 * time.Millisecond} {
		sample(clock, at, func() { rates = append(rates, tg.link.Config().RateMbps) })
	}
	var downAfter bool
	sample(clock, 3500*time.Millisecond, func() { downAfter = tg.state.down })
	if err := clock.RunUntil(sim.Time(4 * time.Second)); err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 5, 2}
	for i, r := range rates {
		if r != want[i] {
			t.Fatalf("rate sample %d = %v, want %v", i, r, want[i])
		}
	}
	if !downAfter {
		t.Fatal("link still up after the script's last event")
	}
	// A rate drop must shrink the queue bound too (re-derivation).
	if got := tg.link.QueueCapacityBytes(); got != 25_000 {
		t.Fatalf("queue capacity after 2 Mbps reconfigure = %dB, want 25000B", got)
	}
}

func TestScriptRepeatAndUntilHorizon(t *testing.T) {
	clock := sim.NewClock()
	tg := newTestTarget(clock)
	probe := Script{
		Events: []Event{{At: 100 * time.Millisecond, Path: 0, Change: Rate(10)}},
		Repeat: 100 * time.Millisecond,
	}
	// Each Rate(10) leaves the config unchanged but still emits a
	// link_reconfigured event — count those to count applications.
	ctr := trace.NewCounter()
	tg.link.SetTracer(trace.Multi{ctr, tg.state})
	probe.Apply(clock, tg)
	// The script never ends; the RunUntil horizon bounds it.
	if err := clock.RunUntil(sim.Time(950 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	applied := ctr.Counts[trace.LinkReconfigured]
	// Events at 100ms..900ms fall before the 950ms horizon; 1s does not.
	if applied != 9 {
		t.Fatalf("repeating script applied %d times, want 9 (RunUntil horizon)", applied)
	}
	// Scheduling is lazy: only the next pass's event waits on the clock.
	if clock.Pending() != 1 {
		t.Fatalf("%d events pending after the horizon, want 1", clock.Pending())
	}
}

func TestFlapGeneratorDownUpCycle(t *testing.T) {
	clock := sim.NewClock()
	tg := newTestTarget(clock)
	ctr := trace.NewCounter()
	tg.link.SetTracer(trace.Multi{ctr, tg.state})
	Flap(0, 500*time.Millisecond, 200*time.Millisecond, 1*time.Second).Apply(clock, tg)

	type probe struct {
		at   time.Duration
		down bool
	}
	var got []probe
	for _, at := range []time.Duration{
		400 * time.Millisecond,  // before first outage
		600 * time.Millisecond,  // inside first outage
		800 * time.Millisecond,  // recovered
		1600 * time.Millisecond, // inside second outage (1.5s–1.7s)
		1900 * time.Millisecond, // recovered again
	} {
		at := at
		sample(clock, at, func() { got = append(got, probe{at, tg.state.down}) })
	}
	// Bound the unbounded repeat by stopping the clock.
	sample(clock, 2*time.Second, clock.Stop)
	if err := clock.RunUntil(sim.Time(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, false, true, false}
	for i, p := range got {
		if p.down != want[i] {
			t.Fatalf("at %v: down=%v, want %v", p.at, p.down, want[i])
		}
	}
	if ctr.Counts[trace.LinkDown] != 2 || ctr.Counts[trace.LinkUp] != 2 {
		t.Fatalf("trace counts down=%d up=%d, want 2/2",
			ctr.Counts[trace.LinkDown], ctr.Counts[trace.LinkUp])
	}
}

func TestFlapPanicsOnOutageNotShorterThanPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Flap accepted outage == period")
		}
	}()
	Flap(0, 0, time.Second, time.Second)
}

func TestOscillateRateStaysWithinDepthBand(t *testing.T) {
	clock := sim.NewClock()
	tg := newTestTarget(clock)
	const mean, depth = 10.0, 0.5
	OscillateRate(0, mean, depth, 800*time.Millisecond).Apply(clock, tg)

	var min, max float64 = mean, mean
	for at := 50 * time.Millisecond; at < 4*time.Second; at += 100 * time.Millisecond {
		sample(clock, at, func() {
			r := tg.link.Config().RateMbps
			if r < min {
				min = r
			}
			if r > max {
				max = r
			}
		})
	}
	// The RunUntil horizon bounds the repeat.
	if err := clock.RunUntil(sim.Time(4 * time.Second)); err != nil {
		t.Fatal(err)
	}
	lo, hi := mean*(1-depth), mean*(1+depth)
	if min < lo-1e-9 || max > hi+1e-9 {
		t.Fatalf("oscillation left the band: saw [%v, %v], want within [%v, %v]", min, max, lo, hi)
	}
	// The sinusoid must actually swing: both band edges reached (the
	// 8-step sampling hits sin=±1 exactly at steps 2 and 6).
	if min > lo+1e-9 || max < hi-1e-9 {
		t.Fatalf("oscillation too shallow: saw [%v, %v], want edges [%v, %v]", min, max, lo, hi)
	}
}

func TestOscillateRatePanicsOnBadDepth(t *testing.T) {
	for _, depth := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("OscillateRate accepted depth %v", depth)
				}
			}()
			OscillateRate(0, 10, depth, time.Second)
		}()
	}
}

func TestKillAt(t *testing.T) {
	clock := sim.NewClock()
	tg := newTestTarget(clock)
	KillAt(0, 2*time.Second).Apply(clock, tg)

	var downAt1500 bool
	sample(clock, 1500*time.Millisecond, func() { downAt1500 = tg.state.down })
	if err := clock.RunUntil(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if downAt1500 {
		t.Fatal("link down at 1.5s, before KillAt time")
	}
	if !tg.state.down {
		t.Fatal("link still up after KillAt time")
	}
}

func TestScriptOnTwoPathTopologyHitsBothDirections(t *testing.T) {
	clock := sim.NewClock()
	tp := netem.NewTwoPath(clock, sim.NewRand(1), [2]netem.PathSpec{
		{CapacityMbps: 10, RTT: 30 * time.Millisecond, QueueDelay: 100 * time.Millisecond},
		{CapacityMbps: 10, RTT: 30 * time.Millisecond, QueueDelay: 100 * time.Millisecond},
	})
	Script{Events: []Event{{At: time.Second, Path: 1, Change: Rate(3)}}}.Apply(clock, tp)
	if err := clock.RunUntil(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if tp.Fwd[1].Config().RateMbps != 3 || tp.Rev[1].Config().RateMbps != 3 {
		t.Fatalf("path 1 rates fwd=%v rev=%v, want 3/3",
			tp.Fwd[1].Config().RateMbps, tp.Rev[1].Config().RateMbps)
	}
	if tp.Fwd[0].Config().RateMbps != 10 || tp.Rev[0].Config().RateMbps != 10 {
		t.Fatal("path 0 touched by a path-1 script")
	}
}

func TestEmptyScriptIsANoOp(t *testing.T) {
	clock := sim.NewClock()
	tg := newTestTarget(clock)
	Script{}.Apply(clock, tg)
	if clock.Pending() != 0 {
		t.Fatal("empty script scheduled events")
	}
}

// seqPayload numbers a datagram in send order.
type seqPayload int

// countingLoss counts the drops of the loss model it wraps.
type countingLoss struct {
	netem.LossModel
	drops uint64
}

func (c *countingLoss) Drop(size int) bool {
	d := c.LossModel.Drop(size)
	if d {
		c.drops++
	}
	return d
}

// TestLinkDeliversInSendOrderUnderRuntimeChanges pins the FIFO property
// of a link: under every runtime change the experiments make — the rate
// falling and rising with a queue built up, the link going down and up,
// a bursty loss process installed — what arrives arrives in send order,
// and arrival times never decrease.
func TestLinkDeliversInSendOrderUnderRuntimeChanges(t *testing.T) {
	clock := sim.NewClock()
	var got []int
	var at []sim.Time
	cfg := netem.LinkConfig{RateMbps: 10, Delay: 5 * time.Millisecond, QueueDelay: 200 * time.Millisecond}
	l := netem.NewLink(clock, sim.NewRand(1), "t", cfg, func(d netem.Datagram) {
		got = append(got, int(d.Payload.(seqPayload)))
		at = append(at, clock.Now())
	})
	ge := &countingLoss{LossModel: NewGilbertElliott(sim.NewRand(2), GEFromAverage(0.1, 4))}
	// Two datagrams a millisecond offer 19.2 Mbit/s, so a queue stands
	// behind every change below.
	sent := 0
	for ms := 0; ms < 300; ms++ {
		clock.At(sim.Time(time.Duration(ms)*time.Millisecond), func() {
			for i := 0; i < 2; i++ {
				l.Send(netem.Datagram{From: "a", To: "b", Size: 1200, Payload: seqPayload(sent)})
				sent++
			}
		})
	}
	for _, c := range []struct {
		at time.Duration
		fn func()
	}{
		{50 * time.Millisecond, func() { l.SetRate(2) }},
		{100 * time.Millisecond, func() { l.SetRate(40) }},
		{150 * time.Millisecond, func() { l.SetDown(true) }},
		{170 * time.Millisecond, func() { l.SetDown(false) }},
		{200 * time.Millisecond, func() { l.SetLossModel(ge) }},
		{250 * time.Millisecond, func() { l.SetRate(5) }},
	} {
		clock.At(sim.Time(c.at), c.fn)
	}
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}

	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("delivery %d is datagram %d, after datagram %d", i, got[i], got[i-1])
		}
		if at[i] < at[i-1] {
			t.Fatalf("delivery %d arrived at %v, before the one ahead of it (%v)", i, at[i], at[i-1])
		}
	}
	// Each change must have had something to act on.
	st := l.Stats
	if uint64(len(got))+st.QueueDrops+st.RandomDrops != uint64(sent) {
		t.Fatalf("sent %d, delivered %d, stats %+v", sent, len(got), st)
	}
	if st.QueueDrops == 0 || ge.drops == 0 || st.RandomDrops == ge.drops {
		t.Fatalf("queue drops %d, loss-model drops %d, random drops %d: a change went unexercised",
			st.QueueDrops, ge.drops, st.RandomDrops)
	}
}
