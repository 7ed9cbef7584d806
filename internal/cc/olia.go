package cc

import "time"

// Olia coordinates the OLIA coupled congestion controller (Khalili et
// al., CoNEXT 2012) across the paths of one multipath connection. The
// paper integrates OLIA in MPQUIC because "it provides good
// performance with MPTCP" (§3, Congestion Control); the evaluation
// uses it for both MPTCP and MPQUIC.
//
// Per ACK on path r, the window grows by
//
//	w_r += ( (w_r/rtt_r²) / (Σ_p w_p/rtt_p)² + α_r/w_r ) · acked_bytes·mss
//
// (in byte units) where α_r re-balances between the paths currently
// "best" by loss-free throughput (ℓ_p²/rtt_p) and the paths with the
// largest windows. On loss, the affected path halves like NewReno.
type Olia struct {
	mss   int
	paths []*OliaPath
}

// NewOlia creates a coordinator for windows of the given MSS.
func NewOlia(mss int) *Olia {
	return &Olia{mss: mss}
}

// OliaPath is the per-path controller handle; it implements Controller.
type OliaPath struct {
	window
	o    *Olia
	srtt time.Duration // last positive sample, so never zero

	// l1 is bytes acked since the last loss; l2 bytes acked between
	// the previous two losses. ℓ_r = max(l1, l2) per the OLIA paper.
	l1, l2 float64
}

// AddPath registers a new path with the coordinator and returns its
// controller.
func (o *Olia) AddPath() *OliaPath {
	p := &OliaPath{
		window: newWindow(o.mss),
		o:      o,
		srtt:   100 * time.Millisecond, // placeholder until sampled
	}
	o.paths = append(o.paths, p)
	return p
}

// loss-free throughput proxy: ℓ_r² / rtt_r.
func (p *OliaPath) rate() float64 {
	l := p.l1
	if p.l2 > l {
		l = p.l2
	}
	if l == 0 {
		l = float64(p.mss) // fresh path: nonzero floor
	}
	return l * l / p.srtt.Seconds()
}

// alpha computes α_r for path p given the current path set. It runs
// once per acked packet, so it counts set sizes and p's membership
// instead of collecting the sets.
func (o *Olia) alpha(p *OliaPath) float64 {
	if len(o.paths) < 2 {
		return 0
	}
	// Find the best loss-free rate (max ℓ²/rtt) and the max window.
	bestRate, maxW := 0.0, 0
	for _, q := range o.paths {
		if r := q.rate(); r > bestRate {
			bestRate = r
		}
		if q.cwnd > maxW {
			maxW = q.cwnd
		}
	}
	// collected: best paths that do not hold the max window.
	collected, maxWPaths := 0, 0
	pCollected, pMaxW := false, false
	for _, q := range o.paths {
		isBest := q.rate() >= bestRate*(1-1e-9)
		hasMaxW := q.cwnd == maxW
		if isBest && !hasMaxW {
			collected++
			pCollected = pCollected || q == p
		}
		if hasMaxW {
			maxWPaths++
			pMaxW = pMaxW || q == p
		}
	}
	n := float64(len(o.paths))
	if collected > 0 {
		if pCollected {
			return 1 / (n * float64(collected))
		}
		if pMaxW {
			return -1 / (n * float64(maxWPaths))
		}
	}
	return 0
}

func (p *OliaPath) OnPacketAcked(bytes int, rtt time.Duration) {
	if rtt > 0 {
		p.srtt = rtt
	}
	p.l1 += float64(bytes)
	if p.slowStart(bytes) {
		return
	}
	mss := float64(p.mss)
	rttSec := p.srtt.Seconds()
	sum := 0.0
	for _, q := range p.o.paths {
		sum += float64(q.cwnd) / mss / q.srtt.Seconds()
	}
	if sum <= 0 {
		return
	}
	w := float64(p.cwnd) / mss // window in packets
	inc := (w/(rttSec*rttSec))/(sum*sum) + p.o.alpha(p)/w
	// inc is in packets per packet acked; scale to the acked bytes.
	deltaBytes := inc * float64(bytes)
	if deltaBytes > float64(bytes) {
		deltaBytes = float64(bytes)
	}
	p.add(int(deltaBytes))
}

func (p *OliaPath) OnCongestionEvent() {
	p.l2 = p.l1
	p.l1 = 0
	p.decreaseTo(p.cwnd / 2)
}

func (p *OliaPath) OnRTO() {
	p.l2 = p.l1
	p.l1 = 0
	p.collapse(p.cwnd / 2)
}
