package cc

import (
	"testing"
	"time"
)

const mss = 1350

func TestRenoInitialWindow(t *testing.T) {
	r := NewReno(mss)
	if r.Cwnd() != 10*mss {
		t.Fatalf("cwnd %d", r.Cwnd())
	}
	if !r.InSlowStart() {
		t.Fatal("should start in slow start")
	}
}

func TestRenoSlowStartDoublesPerRTT(t *testing.T) {
	r := NewReno(mss)
	w := r.Cwnd()
	// Ack a full window: slow start doubles.
	for b := 0; b < w; b += mss {
		r.OnPacketAcked(mss, 50*time.Millisecond)
	}
	if r.Cwnd() != 2*w {
		t.Fatalf("cwnd %d after window acked, want %d", r.Cwnd(), 2*w)
	}
}

func TestRenoCongestionAvoidanceLinear(t *testing.T) {
	r := NewReno(mss)
	r.OnCongestionEvent() // forces ssthresh = cwnd → CA
	w := r.Cwnd()
	if r.InSlowStart() {
		t.Fatal("still in slow start after event")
	}
	for b := 0; b < w; b += mss {
		r.OnPacketAcked(mss, 0)
	}
	if r.Cwnd() != w+mss {
		t.Fatalf("CA growth %d -> %d, want +1 MSS", w, r.Cwnd())
	}
}

func TestRenoDecreaseAndFloor(t *testing.T) {
	r := NewReno(mss)
	r.OnCongestionEvent()
	if r.Cwnd() != 5*mss {
		t.Fatalf("cwnd %d after halve", r.Cwnd())
	}
	for i := 0; i < 10; i++ {
		r.OnCongestionEvent()
	}
	if r.Cwnd() != MinWindowPackets*mss {
		t.Fatalf("cwnd %d, want floor %d", r.Cwnd(), MinWindowPackets*mss)
	}
}

func TestRenoRTOCollapses(t *testing.T) {
	r := NewReno(mss)
	for i := 0; i < 100; i++ {
		r.OnPacketAcked(mss, 0)
	}
	r.OnRTO()
	if r.Cwnd() != MinWindowPackets*mss {
		t.Fatalf("cwnd %d after RTO", r.Cwnd())
	}
	if !r.InSlowStart() {
		t.Fatal("should slow-start after RTO")
	}
}

func TestRenoMaxCwndClamp(t *testing.T) {
	r := NewReno(mss)
	r.SetMaxCwnd(12 * mss)
	for i := 0; i < 100; i++ {
		r.OnPacketAcked(mss, 0)
	}
	if r.Cwnd() != 12*mss {
		t.Fatalf("cwnd %d exceeds clamp", r.Cwnd())
	}
}

func TestCubicSlowStartThenDecrease(t *testing.T) {
	now := time.Duration(0)
	c := NewCubic(mss, func() time.Duration { return now })
	w := c.Cwnd()
	for b := 0; b < w; b += mss {
		c.OnPacketAcked(mss, 50*time.Millisecond)
	}
	if c.Cwnd() != 2*w {
		t.Fatalf("slow start growth %d", c.Cwnd())
	}
	before := c.Cwnd()
	c.OnCongestionEvent()
	want := int(float64(before) * cubicBeta)
	if c.Cwnd() != want {
		t.Fatalf("beta decrease: %d, want %d", c.Cwnd(), want)
	}
}

func TestCubicConcaveGrowthTowardWMax(t *testing.T) {
	now := time.Duration(0)
	c := NewCubic(mss, func() time.Duration { return now })
	// Grow to ~100 packets, then lose.
	for c.Cwnd() < 100*mss {
		c.OnPacketAcked(mss, 20*time.Millisecond)
	}
	wmax := c.Cwnd()
	c.OnCongestionEvent()
	low := c.Cwnd()
	// Ack steadily for 10 virtual seconds.
	for i := 0; i < 10000; i++ {
		now += time.Millisecond
		c.OnPacketAcked(mss, 20*time.Millisecond)
	}
	if c.Cwnd() <= low {
		t.Fatal("cubic did not grow after decrease")
	}
	if c.Cwnd() < wmax*9/10 {
		t.Fatalf("cubic stuck at %d, wmax was %d", c.Cwnd(), wmax)
	}
}

func TestCubicRTO(t *testing.T) {
	now := time.Duration(0)
	c := NewCubic(mss, func() time.Duration { return now })
	for i := 0; i < 100; i++ {
		c.OnPacketAcked(mss, 0)
	}
	c.OnRTO()
	if c.Cwnd() != MinWindowPackets*mss {
		t.Fatalf("cwnd %d after RTO", c.Cwnd())
	}
}

func TestCubicNeverBelowFloorNorAboveClamp(t *testing.T) {
	now := time.Duration(0)
	c := NewCubic(mss, func() time.Duration { return now })
	c.SetMaxCwnd(50 * mss)
	for i := 0; i < 1000; i++ {
		now += time.Millisecond
		c.OnPacketAcked(mss, 10*time.Millisecond)
		if i%100 == 99 {
			c.OnCongestionEvent()
		}
	}
	if c.Cwnd() < MinWindowPackets*mss || c.Cwnd() > 50*mss {
		t.Fatalf("cwnd %d out of bounds", c.Cwnd())
	}
}

func TestOliaTwoPathsCoupledIncrease(t *testing.T) {
	o := NewOlia(mss)
	p1 := o.AddPath()
	p2 := o.AddPath()
	// Leave slow start.
	p1.OnCongestionEvent()
	p2.OnCongestionEvent()
	w1, w2 := p1.Cwnd(), p2.Cwnd()
	for i := 0; i < 1000; i++ {
		p1.OnPacketAcked(mss, 20*time.Millisecond)
		p2.OnPacketAcked(mss, 20*time.Millisecond)
	}
	if p1.Cwnd() <= w1 || p2.Cwnd() <= w2 {
		t.Fatal("OLIA paths did not grow")
	}
	// Coupled growth must be slower than two independent Renos: the
	// sum of increases over 1000 acks should be well below 1000 MSS.
	grown := (p1.Cwnd() - w1) + (p2.Cwnd() - w2)
	if grown > 500*mss {
		t.Fatalf("OLIA grew %d bytes, too aggressive for coupled CC", grown)
	}
}

func TestOliaLossHalvesOnlyAffectedPath(t *testing.T) {
	o := NewOlia(mss)
	p1 := o.AddPath()
	p2 := o.AddPath()
	p1.OnCongestionEvent()
	p2.OnCongestionEvent()
	for i := 0; i < 500; i++ {
		p1.OnPacketAcked(mss, 20*time.Millisecond)
		p2.OnPacketAcked(mss, 20*time.Millisecond)
	}
	w1, w2 := p1.Cwnd(), p2.Cwnd()
	p1.OnCongestionEvent()
	if p1.Cwnd() != max(w1/2, MinWindowPackets*mss) {
		t.Fatalf("p1 %d, want half of %d", p1.Cwnd(), w1)
	}
	if p2.Cwnd() != w2 {
		t.Fatal("loss on p1 must not change p2")
	}
}

func TestOliaSlowStartStillDoubles(t *testing.T) {
	o := NewOlia(mss)
	p := o.AddPath()
	w := p.Cwnd()
	for b := 0; b < w; b += mss {
		p.OnPacketAcked(mss, 30*time.Millisecond)
	}
	if p.Cwnd() != 2*w {
		t.Fatalf("slow start %d", p.Cwnd())
	}
}

func TestOliaAlphaFavorsBestUnderusedPath(t *testing.T) {
	o := NewOlia(mss)
	p1 := o.AddPath()
	p2 := o.AddPath()
	p1.OnCongestionEvent()
	p2.OnCongestionEvent()
	// p1: large window, poor measured rate (few bytes since loss).
	p1.cwnd = 100 * mss
	p1.l1 = float64(mss)
	p1.srtt = 20 * time.Millisecond
	// p2: small window but best rate.
	p2.cwnd = 10 * mss
	p2.l1 = float64(1000 * mss)
	p2.srtt = 20 * time.Millisecond
	if a := o.alpha(p2); a <= 0 {
		t.Fatalf("alpha for best underused path = %v, want > 0", a)
	}
	if a := o.alpha(p1); a >= 0 {
		t.Fatalf("alpha for max-window path = %v, want < 0", a)
	}
}

func TestOliaRTO(t *testing.T) {
	o := NewOlia(mss)
	p := o.AddPath()
	for i := 0; i < 100; i++ {
		p.OnPacketAcked(mss, 0)
	}
	p.OnRTO()
	if p.Cwnd() != MinWindowPackets*mss {
		t.Fatalf("cwnd %d after RTO", p.Cwnd())
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
