package cc

import "time"

// Lia coordinates the LIA coupled congestion controller (RFC 6356,
// Wischik et al. NSDI'11) — OLIA's predecessor and the other coupled
// scheme the paper cites ([48]; §3 leaves "the comparison of other
// multipath congestion control schemes" to further study, which this
// implementation enables).
//
// Per ACK on path i, the window grows by
//
//	min( α·acked/cwnd_total , acked/cwnd_i )
//
// with the aggressiveness factor
//
//	α = cwnd_total · max_i(cwnd_i/rtt_i²) / (Σ_i cwnd_i/rtt_i)²
//
// which equalizes the aggregate against a single TCP flow on the best
// path.
type Lia struct {
	mss   int
	paths []*LiaPath
}

// NewLia creates a coordinator.
func NewLia(mss int) *Lia { return &Lia{mss: mss} }

// LiaPath is the per-path controller; it implements Controller.
type LiaPath struct {
	window
	l     *Lia
	srtt  time.Duration // last positive sample, so never zero
	acked float64       // fractional window growth accumulator (bytes)
}

// AddPath registers a new path.
func (l *Lia) AddPath() *LiaPath {
	p := &LiaPath{
		window: newWindow(l.mss),
		l:      l,
		srtt:   100 * time.Millisecond, // placeholder until sampled
	}
	l.paths = append(l.paths, p)
	return p
}

// alpha computes RFC 6356's aggressiveness factor.
func (l *Lia) alpha() float64 {
	var total, best, denom float64
	for _, p := range l.paths {
		w := float64(p.cwnd) / float64(l.mss)
		rtt := p.srtt.Seconds()
		total += w
		if v := w / (rtt * rtt); v > best {
			best = v
		}
		denom += w / rtt
	}
	if denom <= 0 {
		return 1
	}
	return total * best / (denom * denom)
}

func (p *LiaPath) OnPacketAcked(bytes int, rtt time.Duration) {
	if rtt > 0 {
		p.srtt = rtt
	}
	if p.slowStart(bytes) {
		return
	}
	mss := float64(p.mss)
	var total float64
	for _, q := range p.l.paths {
		total += float64(q.cwnd)
	}
	if total <= 0 || p.cwnd <= 0 {
		return
	}
	coupled := p.l.alpha() * float64(bytes) * mss / total
	uncoupled := float64(bytes) * mss / float64(p.cwnd)
	inc := coupled
	if uncoupled < inc {
		inc = uncoupled
	}
	// Whole bytes move the window; the fraction carries over.
	p.acked += inc
	whole := int(p.acked)
	p.acked -= float64(whole)
	p.add(whole)
}

func (p *LiaPath) OnCongestionEvent() {
	p.decreaseTo(p.cwnd / 2)
	p.acked = 0
}

func (p *LiaPath) OnRTO() {
	p.collapse(p.cwnd / 2)
	p.acked = 0
}
