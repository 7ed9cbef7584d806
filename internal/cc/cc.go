// Package cc implements the congestion controllers the paper compares:
// NewReno (as a reference), CUBIC (used by both single-path TCP and
// QUIC, §4.1), and the coupled multipath controllers OLIA (used by both
// MPTCP and MPQUIC, §3 Congestion Control) and LIA, its predecessor.
//
// All four are one byte-counted window — the unexported window type:
// slow start, the MinWindowPackets floor, the send-buffer clamp,
// multiplicative decrease and RTO collapse — and differ only in how
// they grow it in congestion avoidance, which is all that Reno, Cubic,
// OliaPath and LiaPath add to it. In-flight accounting and
// once-per-window congestion-event filtering are the transport's job;
// controllers only maintain the window. Nothing paces: a pacer would
// derive its rate from window's cwnd and the path's RTT, so it belongs
// in window, behind Controller.
package cc

import "time"

// Controller is a per-path congestion controller.
type Controller interface {
	// OnPacketAcked credits newly acknowledged bytes. rtt is the
	// path's current smoothed RTT (used by coupled controllers).
	OnPacketAcked(bytes int, rtt time.Duration)
	// OnCongestionEvent applies one multiplicative decrease. Callers
	// must filter duplicate signals from the same loss episode (at
	// most one event per window).
	OnCongestionEvent()
	// OnRTO collapses the window after a retransmission timeout.
	OnRTO()
	// Cwnd reports the congestion window in bytes.
	Cwnd() int
	// InSlowStart reports whether the controller is in slow start.
	InSlowStart() bool
}

// Default window constants (in MSS units), matching quic-go and Linux.
const (
	// InitialWindowPackets is the initial congestion window.
	InitialWindowPackets = 10
	// MinWindowPackets floors the window after decreases.
	MinWindowPackets = 2
)

// window is the state and the rules every controller shares. Each
// controller embeds one and adds its increase rule.
type window struct {
	mss      int
	cwnd     int
	ssthresh int
	maxCwnd  int
}

func newWindow(mss int) window {
	return window{
		mss:      mss,
		cwnd:     InitialWindowPackets * mss,
		ssthresh: 1 << 30,
		maxCwnd:  1 << 30,
	}
}

// Cwnd reports the congestion window in bytes.
func (w *window) Cwnd() int { return w.cwnd }

// InSlowStart reports whether the window is below ssthresh.
func (w *window) InSlowStart() bool { return w.cwnd < w.ssthresh }

// SetMaxCwnd clamps the window (emulating sendbuf limits). It takes
// effect on the next ACK.
func (w *window) SetMaxCwnd(b int) { w.maxCwnd = b }

func (w *window) floor() int { return MinWindowPackets * w.mss }

// add moves the window by delta bytes (OLIA's can be negative) and
// holds it between the floor and the clamp.
func (w *window) add(delta int) {
	w.cwnd = min(max(w.cwnd+delta, w.floor()), w.maxCwnd)
}

// slowStart credits acked bytes one for one while the window is below
// ssthresh, and reports whether it did; if not, the caller's
// congestion-avoidance rule applies.
func (w *window) slowStart(bytes int) bool {
	if !w.InSlowStart() {
		return false
	}
	w.add(bytes)
	return true
}

// decreaseTo is the multiplicative decrease: the window drops to the
// given size and congestion avoidance starts there.
func (w *window) decreaseTo(cwnd int) {
	w.cwnd = max(cwnd, w.floor())
	w.ssthresh = w.cwnd
}

// collapse is the RTO response: back to the minimum window, slow start
// up to the given threshold.
func (w *window) collapse(ssthresh int) {
	w.ssthresh = max(ssthresh, w.floor())
	w.cwnd = w.floor()
}

// Reno is byte-counted NewReno: slow start doubling, AIMD congestion
// avoidance, half-window decrease.
type Reno struct {
	window
	acked int // bytes accumulated toward the next CA increase
}

// NewReno returns a NewReno controller for the given MSS.
func NewReno(mss int) *Reno { return &Reno{window: newWindow(mss)} }

func (r *Reno) OnPacketAcked(bytes int, _ time.Duration) {
	if r.slowStart(bytes) {
		return
	}
	inc := 0
	r.acked += bytes
	if r.acked >= r.cwnd {
		r.acked -= r.cwnd
		inc = r.mss
	}
	r.add(inc)
}

func (r *Reno) OnCongestionEvent() {
	r.decreaseTo(r.cwnd / 2)
	r.acked = 0
}

func (r *Reno) OnRTO() {
	r.collapse(r.cwnd / 2)
	r.acked = 0
}
