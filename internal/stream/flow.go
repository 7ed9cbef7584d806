package stream

// FlowController enforces one flow-control level (a single stream or
// the whole connection). QUIC flow control is credit-based: the
// receiver advertises an absolute byte limit via WINDOW_UPDATE and the
// sender never exceeds it (§2: the WINDOW_UPDATE frame "is used to
// advertise the receive window of the peer").
type FlowController struct {
	// Send side: the peer's advertised limit and our consumption.
	sendLimit uint64
	sent      uint64

	// Receive side: what we advertised, what arrived, what the app
	// consumed, and the window size we grant.
	recvLimit    uint64
	highestRecvd uint64
	consumed     uint64
	windowSize   uint64
}

// NewFlowController builds a controller granting (and assuming the
// peer grants) initialWindow bytes of credit.
func NewFlowController(initialWindow uint64) *FlowController {
	return &FlowController{
		sendLimit:  initialWindow,
		recvLimit:  initialWindow,
		windowSize: initialWindow,
	}
}

// --- send side ---

// SendAllowance reports how many more bytes may be sent right now.
func (f *FlowController) SendAllowance() uint64 {
	if f.sent >= f.sendLimit {
		return 0
	}
	return f.sendLimit - f.sent
}

// AddBytesSent consumes send credit.
func (f *FlowController) AddBytesSent(n uint64) { f.sent += n }

// BytesSent returns the cumulative flow-controlled bytes sent.
func (f *FlowController) BytesSent() uint64 { return f.sent }

// UpdateSendLimit raises the limit from a received WINDOW_UPDATE.
// Regressions (stale frames) are ignored. It reports whether the
// window actually grew — the signal to unblock the sender.
func (f *FlowController) UpdateSendLimit(limit uint64) bool {
	if limit <= f.sendLimit {
		return false
	}
	f.sendLimit = limit
	return true
}

// --- receive side ---

// OnReceive records stream bytes arriving up to absolute offset end.
// It reports whether the peer violated flow control.
func (f *FlowController) OnReceive(end uint64) (ok bool) {
	if end > f.highestRecvd {
		f.highestRecvd = end
	}
	return end <= f.recvLimit
}

// OnConsume records the application reading n more bytes, freeing
// receive credit.
func (f *FlowController) OnConsume(n uint64) { f.consumed += n }

// ShouldSendUpdate reports whether enough credit was freed that a
// WINDOW_UPDATE is worth sending (less than half the window remains
// since the last advertisement).
func (f *FlowController) ShouldSendUpdate() bool {
	next := f.consumed + f.windowSize
	return next >= f.recvLimit+f.windowSize/2
}

// NextUpdate returns (and commits to) the limit a WINDOW_UPDATE should
// carry.
func (f *FlowController) NextUpdate() uint64 {
	next := f.consumed + f.windowSize
	if next > f.recvLimit {
		f.recvLimit = next
	}
	return f.recvLimit
}

// RecvLimit returns the current advertised limit.
func (f *FlowController) RecvLimit() uint64 { return f.recvLimit }
