package cc

import (
	"testing"
	"time"
)

func TestLiaSlowStartDoubles(t *testing.T) {
	l := NewLia(mss)
	p := l.AddPath()
	w := p.Cwnd()
	for b := 0; b < w; b += mss {
		p.OnPacketAcked(mss, 20*time.Millisecond)
	}
	if p.Cwnd() != 2*w {
		t.Fatalf("slow start %d", p.Cwnd())
	}
}

func TestLiaCoupledSlowerThanUncoupled(t *testing.T) {
	l := NewLia(mss)
	p1 := l.AddPath()
	p2 := l.AddPath()
	p1.OnCongestionEvent()
	p2.OnCongestionEvent()
	w1, w2 := p1.Cwnd(), p2.Cwnd()
	for i := 0; i < 1000; i++ {
		p1.OnPacketAcked(mss, 20*time.Millisecond)
		p2.OnPacketAcked(mss, 20*time.Millisecond)
	}
	grown := (p1.Cwnd() - w1) + (p2.Cwnd() - w2)
	if grown <= 0 {
		t.Fatal("LIA did not grow")
	}
	// Two uncoupled Renos would grow ~1000 MSS combined; LIA must be
	// decisively slower.
	if grown > 600*mss {
		t.Fatalf("LIA grew %d bytes — not coupled", grown)
	}
}

func TestLiaSinglePathApproachesReno(t *testing.T) {
	l := NewLia(mss)
	p := l.AddPath()
	p.OnCongestionEvent() // leave slow start
	w := p.Cwnd()
	// Ack one full window: Reno grows ~1 MSS; LIA with one path has
	// alpha=1 → min(acked·mss/total, acked·mss/w) = same, so ≈ 1 MSS.
	for b := 0; b < w; b += mss {
		p.OnPacketAcked(mss, 20*time.Millisecond)
	}
	grown := p.Cwnd() - w
	if grown < mss/2 || grown > 2*mss {
		t.Fatalf("single-path LIA grew %d, want ~1 MSS", grown)
	}
}

func TestLiaDecreaseAndRTO(t *testing.T) {
	l := NewLia(mss)
	p := l.AddPath()
	for i := 0; i < 100; i++ {
		p.OnPacketAcked(mss, 0)
	}
	w := p.Cwnd()
	p.OnCongestionEvent()
	if p.Cwnd() != w/2 {
		t.Fatalf("halving: %d vs %d", p.Cwnd(), w)
	}
	p.OnRTO()
	if p.Cwnd() != MinWindowPackets*mss {
		t.Fatalf("RTO floor: %d", p.Cwnd())
	}
}

func TestLiaAlphaBounded(t *testing.T) {
	l := NewLia(mss)
	p1 := l.AddPath()
	p2 := l.AddPath()
	p1.srtt, p2.srtt = 10*time.Millisecond, 200*time.Millisecond
	p1.cwnd, p2.cwnd = 100*mss, 4*mss
	a := l.alpha()
	if a <= 0 {
		t.Fatalf("alpha %v", a)
	}
	// RFC 6356's alpha keeps the aggregate no more aggressive than one
	// flow on the best path; for these values it stays near ~1.
	if a > 10 {
		t.Fatalf("alpha %v unreasonably large", a)
	}
}
