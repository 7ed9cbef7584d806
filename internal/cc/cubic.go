package cc

import (
	"math"
	"time"
)

// CUBIC constants per RFC 8312 (and the Linux/quic-go implementations
// the paper's testbed ran).
const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// Cubic implements the CUBIC congestion controller used by single-path
// TCP and QUIC in the evaluation (§4.1: "we use CUBIC congestion
// control with the two single path protocols").
type Cubic struct {
	window
	now func() time.Duration // virtual-time source

	// Cubic epoch state.
	epochStart time.Duration // zero = no epoch
	wMax       float64       // window before the last decrease (bytes)
	k          float64       // time to reach wMax again (seconds)
	cwndTCP    float64       // Reno-friendly estimate (bytes)
}

// NewCubic builds a CUBIC controller. now supplies monotonic virtual
// time (the simulation clock).
func NewCubic(mss int, now func() time.Duration) *Cubic {
	return &Cubic{window: newWindow(mss), now: now}
}

func (c *Cubic) OnPacketAcked(bytes int, rtt time.Duration) {
	if c.slowStart(bytes) {
		return
	}
	now := c.now()
	if c.epochStart == 0 {
		// First ack of a new epoch (after a decrease or slow start
		// exit): anchor the cubic curve.
		c.epochStart = now
		if float64(c.cwnd) < c.wMax {
			c.k = math.Cbrt((c.wMax - float64(c.cwnd)) / float64(c.mss) / cubicC)
		} else {
			c.k = 0
			c.wMax = float64(c.cwnd)
		}
		c.cwndTCP = float64(c.cwnd)
	}
	t := (now - c.epochStart).Seconds() + rtt.Seconds()
	// W_cubic(t) in bytes.
	wCubic := (cubicC*math.Pow(t-c.k, 3) + c.wMax/float64(c.mss)) * float64(c.mss)
	// TCP-friendly region: emulate Reno's growth over the epoch.
	c.cwndTCP += float64(c.mss) * float64(bytes) / c.cwndTCP
	target := wCubic
	if c.cwndTCP > target {
		target = c.cwndTCP
	}
	inc := 0.0
	if target > float64(c.cwnd) {
		// Approach the target at most one MSS per cwnd/mss acks, as
		// real implementations do, by increasing proportionally.
		inc = (target - float64(c.cwnd)) / float64(c.cwnd) * float64(bytes)
		if inc > float64(bytes) {
			inc = float64(bytes) // never faster than slow start
		}
	}
	c.add(int(inc))
}

func (c *Cubic) OnCongestionEvent() {
	c.epochStart = 0
	w := float64(c.cwnd)
	// Fast convergence: release bandwidth faster when the new wMax is
	// below the previous one.
	if w < c.wMax {
		c.wMax = w * (1 + cubicBeta) / 2
	} else {
		c.wMax = w
	}
	c.decreaseTo(int(w * cubicBeta))
}

func (c *Cubic) OnRTO() {
	c.epochStart = 0
	c.wMax = float64(c.cwnd)
	c.collapse(int(float64(c.cwnd) * cubicBeta))
}
