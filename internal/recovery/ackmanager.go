package recovery

import (
	"time"

	"mpquic/internal/stream"
	"mpquic/internal/wire"
)

// Ack policy constants (quic-go era).
const (
	// AckEveryN retransmittable packets triggers an immediate ACK.
	AckEveryN = 2
	// MaxAckDelay bounds how long an ACK for a retransmittable packet
	// may be withheld.
	MaxAckDelay = 25 * time.Millisecond
)

// AckManager tracks the receive half of one packet-number space and
// builds ACK frames with up to wire.MaxAckRanges ranges — the rich loss
// signal that lets (MP)QUIC recover so much better than TCP's 2-3 SACK
// blocks (§4.1, low-BDP-losses).
type AckManager struct {
	pathID wire.PathID

	// received holds PNs as [pn, pn+1) intervals: at most
	// wire.MaxAckRanges of them, the newest — all an ACK frame can report.
	// PNs below floor belonged to intervals (or the gaps between them)
	// forgotten to keep that bound, and count as already received.
	received        stream.IntervalSet
	floor           wire.PacketNumber
	largestReceived wire.PacketNumber
	largestRecvTime time.Duration
	hasReceived     bool

	// Pending-ack state.
	unackedRetransmittable int
	ackQueued              bool
	ackDeadline            time.Duration // 0 = none
}

// NewAckManager builds an ack manager for the given path's space.
func NewAckManager(pathID wire.PathID) *AckManager {
	return &AckManager{pathID: pathID}
}

// LargestReceived returns the largest PN seen (for header PN decoding);
// ok is false before any packet arrives.
func (a *AckManager) LargestReceived() (wire.PacketNumber, bool) {
	return a.largestReceived, a.hasReceived
}

// IsDuplicate reports whether pn was already received, or is too old
// to tell (see the received field).
func (a *AckManager) IsDuplicate(pn wire.PacketNumber) bool {
	return pn < a.floor || a.received.Contains(uint64(pn), uint64(pn)+1)
}

// OnPacketReceived records an incoming packet and updates ack policy
// state. It reports whether the packet is new (not a duplicate).
func (a *AckManager) OnPacketReceived(pn wire.PacketNumber, retransmittable bool, now time.Duration) bool {
	if a.IsDuplicate(pn) {
		return false
	}
	a.received.Add(uint64(pn), uint64(pn)+1)
	// One packet opens at most one interval, so forgetting the oldest
	// restores the bound. Without it every loss would add an interval for
	// the life of the connection, and a peer sending every other PN
	// would grow the set without limit.
	if ivs := a.received.Intervals(); len(ivs) > wire.MaxAckRanges {
		a.floor = wire.PacketNumber(ivs[0].End)
		a.received.Remove(0, ivs[0].End)
	}
	if !a.hasReceived || pn > a.largestReceived {
		a.largestReceived = pn
		a.largestRecvTime = now
		a.hasReceived = true
	}
	if retransmittable {
		a.unackedRetransmittable++
		if a.unackedRetransmittable >= AckEveryN {
			a.ackQueued = true
		} else if a.ackDeadline == 0 {
			a.ackDeadline = now + MaxAckDelay
		}
		// Out-of-order arrival signals loss upstream: ack immediately
		// so the sender's fast retransmit can kick in.
		if pn != a.largestReceived || len(a.received.Intervals()) > 1 {
			a.ackQueued = true
		}
	}
	return true
}

// ForceAck queues an immediate acknowledgment (used for handshake
// packets, which real QUIC stacks ack without delay).
func (a *AckManager) ForceAck() {
	if a.hasReceived {
		a.ackQueued = true
	}
}

// ShouldSendAck reports whether an ACK should go out now.
func (a *AckManager) ShouldSendAck(now time.Duration) bool {
	if a.ackQueued {
		return true
	}
	return a.ackDeadline != 0 && now >= a.ackDeadline
}

// AckDeadline returns the pending delayed-ack deadline (0 = none).
func (a *AckManager) AckDeadline() time.Duration {
	if a.ackQueued {
		return 0
	}
	return a.ackDeadline
}

// HasACKablePackets reports whether anything was ever received.
func (a *AckManager) HasACKablePackets() bool { return a.hasReceived }

// BuildAck constructs the ACK frame and resets ack policy state. It
// returns nil when nothing has been received yet. The frame is freshly
// allocated and the caller's to keep; a sender that serializes the
// frame before building the next one should use BuildAckInto.
func (a *AckManager) BuildAck(now time.Duration) *wire.AckFrame {
	if !a.hasReceived {
		return nil
	}
	f := new(wire.AckFrame)
	a.BuildAckInto(f, now)
	return f
}

// BuildAckInto is BuildAck filling the caller's frame, reusing the
// capacity of f.Ranges. It reports false, leaving f alone, when nothing
// has been received yet.
func (a *AckManager) BuildAckInto(f *wire.AckFrame, now time.Duration) bool {
	if !a.hasReceived {
		return false
	}
	// Convert ascending [start,end) intervals (at most MaxAckRanges, see
	// OnPacketReceived) to descending closed AckRanges.
	ivs := a.received.Intervals()
	ranges := f.Ranges[:0]
	if cap(ranges) < len(ivs) {
		ranges = make([]wire.AckRange, 0, len(ivs))
	}
	for i := len(ivs) - 1; i >= 0; i-- {
		ranges = append(ranges, wire.AckRange{
			Smallest: wire.PacketNumber(ivs[i].Start),
			Largest:  wire.PacketNumber(ivs[i].End - 1),
		})
	}
	delay := now - a.largestRecvTime
	if delay < 0 {
		delay = 0
	}
	a.ackQueued = false
	a.ackDeadline = 0
	a.unackedRetransmittable = 0
	*f = wire.AckFrame{PathID: a.pathID, Ranges: ranges, AckDelay: delay}
	return true
}
