package recovery

import (
	"sort"
	"time"

	"mpquic/internal/wire"
)

// Ack policy constants (quic-go era), read only by AckDelay.
const (
	// AckEveryN retransmittable packets triggers an immediate ACK.
	AckEveryN = 2
	// MaxAckDelay bounds how long an ACK for a retransmittable packet
	// may be withheld.
	MaxAckDelay = 25 * time.Millisecond
)

// AckDelay is the delayed-ACK rule both transport families follow, so
// that QUIC's ACK frame and TCP's SACK blocks (§4.1) report at the same
// moments: an ACK is owed at once on every AckEveryN-th packet that
// wants one, or on one the receiver calls immediate, and otherwise
// MaxAckDelay after the first packet it has not acked.
type AckDelay struct {
	pending  int           // packets received since the last ACK
	queued   bool          // an ACK is owed now
	deadline time.Duration // when a delayed ACK falls due; 0 = none
}

// Received counts a packet that wants an ACK, arriving at now.
func (d *AckDelay) Received(now time.Duration, immediate bool) {
	d.pending++
	if d.pending >= AckEveryN || immediate {
		d.queued = true
	} else if d.deadline == 0 {
		d.deadline = now + MaxAckDelay
	}
}

// Due reports whether an ACK should go out at now.
func (d *AckDelay) Due(now time.Duration) bool {
	return d.queued || d.deadline != 0 && now >= d.deadline
}

// Deadline returns when a delayed ACK falls due: 0 while none is
// pending, or while one is owed already.
func (d *AckDelay) Deadline() time.Duration {
	if d.queued {
		return 0
	}
	return d.deadline
}

// Sent resets the rule as an ACK goes out.
func (d *AckDelay) Sent() { *d = AckDelay{} }

// AckManager tracks the receive half of one packet-number space and
// builds ACK frames with up to wire.MaxAckRanges ranges — the rich loss
// signal that lets (MP)QUIC recover so much better than TCP's 2-3 SACK
// blocks (§4.1, low-BDP-losses).
type AckManager struct {
	pathID wire.PathID

	// The received PNs, in the form an ACK frame carries them:
	// ranges[head:] (see held) are at most wire.MaxAckRanges disjoint
	// ranges, descending, the newest — all a frame can report. The
	// backing array keeps free room in front of head, so a packet that
	// opens a new top range takes a slot there and moves nothing. rest is
	// the encoded size of every range after the first (wire.AckRangeSize),
	// kept up to date so that an ACK is sized without walking its ranges.
	// PNs below floor belonged to ranges (or the gaps between them)
	// forgotten to keep the bound, and count as already received.
	ranges          []wire.AckRange
	head            int
	rest            int
	floor           wire.PacketNumber
	largestRecvTime time.Duration

	// When the retransmittable packets received owe an ACK.
	AckDelay
}

// NewAckManager builds an ack manager for the given path's space.
func NewAckManager(pathID wire.PathID) *AckManager {
	return &AckManager{pathID: pathID}
}

// held returns the ranges of received PNs, largest first.
func (a *AckManager) held() []wire.AckRange { return a.ranges[a.head:] }

// LargestReceived returns the largest PN seen (for header PN decoding);
// ok is false before any packet arrives.
func (a *AckManager) LargestReceived() (wire.PacketNumber, bool) {
	if r := a.held(); len(r) > 0 {
		return r[0].Largest, true
	}
	return 0, false
}

// IsDuplicate reports whether pn was already received, or is too old
// to tell (see the ranges field).
func (a *AckManager) IsDuplicate(pn wire.PacketNumber) bool {
	r := a.held()
	i := search(r, pn)
	return pn < a.floor || i < len(r) && pn <= r[i].Largest
}

// search returns the index of the first of the descending ranges r whose
// Smallest is at most pn — the one range that can hold pn — or len(r).
func search(r []wire.AckRange, pn wire.PacketNumber) int {
	return sort.Search(len(r), func(i int) bool { return r[i].Smallest <= pn })
}

// OnPacketReceived records an incoming packet and updates ack policy
// state. It reports whether the packet is new (not a duplicate). A packet
// above every range received costs O(1) amortized; one that fills in
// below the top (reordering) up to O(wire.MaxAckRanges).
//
//mpq:noescape
func (a *AckManager) OnPacketReceived(pn wire.PacketNumber, retransmittable bool, now time.Duration) bool {
	switch r := a.held(); {
	case len(r) > 0 && pn == r[0].Largest+1:
		r[0].Largest = pn // in order: the gaps below do not move
	case len(r) == 0 || pn > r[0].Largest:
		a.openTop(pn)
	case a.IsDuplicate(pn):
		return false
	default:
		a.fillIn(pn)
	}
	// One packet opens at most one range, so forgetting the oldest
	// restores the bound. Without it every loss would add a range for the
	// life of the connection, and a peer sending every other PN would add
	// ranges without limit.
	if len(a.ranges)-a.head > wire.MaxAckRanges {
		a.forgetOldest()
	}
	r := a.held()
	if pn == r[0].Largest {
		a.largestRecvTime = now
	}
	if retransmittable {
		// Out-of-order arrival signals loss upstream: ack immediately
		// so the sender's fast retransmit can kick in.
		a.Received(now, pn != r[0].Largest || len(r) > 1)
	}
	return true
}

// openTop records pn as a range of its own above every range held (a
// hole below it).
//
//mpq:noescape
func (a *AckManager) openTop(pn wire.PacketNumber) {
	if a.head == 0 {
		a.makeRoom()
	}
	a.head--
	a.ranges[a.head] = wire.AckRange{Smallest: pn, Largest: pn}
	if r := a.held(); len(r) > 1 {
		a.rest += wire.AckRangeSize(r[0], r[1])
	}
}

// fillIn records pn, held by no range, below the top range: it extends
// the range above or below pn, merges the two when pn joins them, or
// opens a range between them, then sums rest again.
//
//mpq:noescape
func (a *AckManager) fillIn(pn wire.PacketNumber) {
	r := a.held()
	i := search(r, pn) // r[i-1] is above pn, r[i] (if any) below
	above := pn+1 == r[i-1].Smallest
	below := i < len(r) && r[i].Largest+1 == pn
	switch {
	case above && below:
		r[i-1].Smallest = r[i].Smallest
		copy(r[i:], r[i+1:])
		a.ranges = a.ranges[:len(a.ranges)-1]
	case above:
		r[i-1].Smallest = pn
	case below:
		r[i].Largest = pn
	default:
		if a.head == 0 {
			a.makeRoom()
		}
		a.head--
		r = a.held()
		copy(r, r[1:i+1])
		r[i] = wire.AckRange{Smallest: pn, Largest: pn}
	}
	a.rest = 0
	r = a.held()
	for j := 1; j < len(r); j++ {
		a.rest += wire.AckRangeSize(r[j-1], r[j])
	}
}

// forgetOldest drops the lowest range, raising floor above it.
//
//mpq:noescape
func (a *AckManager) forgetOldest() {
	r := a.held()
	n := len(r)
	a.floor = r[n-1].Largest + 1
	a.rest -= wire.AckRangeSize(r[n-2], r[n-1])
	a.ranges = a.ranges[:len(a.ranges)-1]
}

// makeRoom moves the ranges to the back of their backing array — grown
// first, unless it is already more than twice as long as they are — so
// that the next len(ranges)+1 slots taken in front of them move nothing:
// O(1) per packet amortized.
func (a *AckManager) makeRoom() {
	r := a.held()
	buf := a.ranges[:cap(a.ranges)]
	for len(buf) < 2*len(r)+1 {
		buf = append(buf, wire.AckRange{}) // buf is full: append grows it
		buf = buf[:cap(buf)]
	}
	a.head = len(buf) - len(r)
	copy(buf[a.head:], r)
	a.ranges = buf
}

// ForceAck queues an immediate acknowledgment (used for handshake
// packets, which real QUIC stacks ack without delay).
func (a *AckManager) ForceAck() {
	if a.HasACKablePackets() {
		a.queued = true
	}
}

// HasACKablePackets reports whether anything was ever received.
func (a *AckManager) HasACKablePackets() bool { return len(a.held()) > 0 }

// BuildAck constructs the ACK frame and resets ack policy state. It
// returns nil when nothing has been received yet. The frame is freshly
// allocated and the caller's to keep; a sender that serializes the
// frame before building the next one should use BuildAckInto.
func (a *AckManager) BuildAck(now time.Duration) *wire.AckFrame {
	if !a.HasACKablePackets() {
		return nil
	}
	f := new(wire.AckFrame)
	a.BuildAckInto(f, now)
	return f
}

// BuildAckInto is BuildAck filling the caller's frame, reusing the
// capacity of f.Ranges, and returns the frame's encoded size — without
// walking the ranges, which it copies as they are held. It returns 0,
// leaving f alone, when nothing has been received yet.
//
//mpq:noescape
func (a *AckManager) BuildAckInto(f *wire.AckFrame, now time.Duration) int {
	r := a.held()
	if len(r) == 0 {
		return 0
	}
	a.Sent()
	*f = wire.AckFrame{PathID: a.pathID, Ranges: append(f.Ranges[:0], r...), AckDelay: max(now-a.largestRecvTime, 0)}
	return f.EncodedSizeWith(a.rest)
}
