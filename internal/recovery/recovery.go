// Package recovery implements QUIC loss detection for one packet-number
// space. Multipath QUIC gives each path its own space (§3), so an
// MPQUIC connection owns one recovery.Space per path while single-path
// QUIC owns exactly one.
//
// Because retransmissions always use fresh packet numbers, every ACK
// yields an unambiguous RTT sample (§2) — the property the paper
// repeatedly credits for MPQUIC's scheduling precision.
package recovery

import (
	"time"

	"mpquic/internal/rtt"
	"mpquic/internal/slab"
	"mpquic/internal/wire"
)

// Loss-detection constants (quic-go era values).
const (
	// PacketThreshold declares a packet lost when this many later
	// packets were acknowledged ("fast retransmit").
	PacketThreshold = 3
	// timeThresholdNum/Den scale smoothed RTT for time-based loss
	// ("early retransmit"): 9/8 · max(srtt, latest).
	timeThresholdNum = 9
	timeThresholdDen = 8
)

// sentInlineFrames is how many retransmittable frames a SentPacket
// recorded through RecordSent holds without a separate allocation, and
// sentInlineStreams how many of them may be STREAM frames, which it
// holds by value; a data packet carries one or two.
const (
	sentInlineFrames  = 4
	sentInlineStreams = 2
)

// SentPacket records one in-flight packet.
type SentPacket struct {
	PN wire.PacketNumber
	// Frames are consulted when the packet is acked or lost. Packets
	// recorded through RecordSent keep only retransmittable frames —
	// the others are never looked at again.
	Frames []wire.Frame
	// Size is the congestion-controlled size (full datagram bytes).
	Size int
	// SentTime is virtual time since simulation epoch.
	SentTime time.Duration
	// Retransmittable mirrors wire.Packet.IsRetransmittable.
	Retransmittable bool

	settled bool                                // acked or declared lost
	inline  [sentInlineFrames]wire.Frame        // backs Frames of RecordSent packets
	streams [sentInlineStreams]wire.StreamFrame // the STREAM frames among them
}

// Settled reports whether the packet was acknowledged or declared lost.
func (sp *SentPacket) Settled() bool { return sp.settled }

// Space tracks the sent half of one packet-number space.
//
// The slices a Space returns — AckResult.NewlyAcked and Lost, the
// OnLossTimer and OnRTO results — are scratch the Space
// owns, valid until the next call of the method that produced them
// (OnAck, OnLossTimer and OnRTO share theirs); callers consume them on
// the spot. The settled SentPackets they point to stay intact at least
// until the next OnAck, OnLossTimer or OnRTO, which is when they
// become eligible for reuse.
type Space struct {
	est *rtt.Estimator

	// history is the PN-ordered log of what was sent. A SentPacket
	// becomes the Space's at OnPacketSent, and RecordSent reuses it.
	history History[SentPacket, *SentPacket]

	// Result scratch, see the type comment.
	ackedScratch []*SentPacket
	lostScratch  []*SentPacket

	nextPN        wire.PacketNumber
	largestAcked  wire.PacketNumber
	bytesInFlight int
	// retransmittableInFlight counts unsettled retransmittable packets.
	retransmittableInFlight int
	lossTime                time.Duration // earliest time-threshold deadline (0 = none)
	cutback                 Episode
}

// NewSpace builds a space feeding RTT samples into est, with a free
// list of its own.
func NewSpace(est *rtt.Estimator) *Space { return NewSpaceOn(est, new(slab.List[SentPacket])) }

// NewSpaceOn builds a space feeding RTT samples into est whose records
// come from, and go back to, free: the list its connection lends every
// path space (see History).
func NewSpaceOn(est *rtt.Estimator, free *slab.List[SentPacket]) *Space {
	return &Space{
		est:          est,
		history:      NewHistory[SentPacket](free),
		ackedScratch: free.TakeLog(),
		lostScratch:  free.TakeLog(),
		largestAcked: wire.InvalidPacketNumber,
	}
}

// Release hands every record the space holds back to its free list
// (History.Release), with the result scratch that named them. The
// space must not be used afterwards; its counters keep their values.
func (s *Space) Release() {
	s.history.Release()
	s.history.free.PutLog(s.ackedScratch)
	s.history.free.PutLog(s.lostScratch)
	s.ackedScratch, s.lostScratch = nil, nil
}

// NextPacketNumber allocates the next monotonically increasing PN.
func (s *Space) NextPacketNumber() wire.PacketNumber {
	pn := s.nextPN
	s.nextPN++
	return pn
}

// LargestAcked returns the largest PN the peer acknowledged, or
// wire.InvalidPacketNumber.
func (s *Space) LargestAcked() wire.PacketNumber { return s.largestAcked }

// LargestSent returns the highest allocated PN + 1 (i.e. next to send).
func (s *Space) LargestSent() wire.PacketNumber { return s.nextPN }

// BytesInFlight reports unacknowledged, non-lost bytes.
func (s *Space) BytesInFlight() int { return s.bytesInFlight }

// HasRetransmittableInFlight reports whether any unsettled packet
// needs reliability (drives RTO arming).
func (s *Space) HasRetransmittableInFlight() bool { return s.retransmittableInFlight > 0 }

// RTT returns the estimator bound to this space's path.
func (s *Space) RTT() *rtt.Estimator { return s.est }

// OnPacketSent records a transmission. The PN must come from
// NextPacketNumber (strictly increasing).
func (s *Space) OnPacketSent(sp *SentPacket) {
	if live := s.history.Live(); len(live) > 0 && sp.PN <= live[len(live)-1].PN {
		panic("recovery: non-monotonic packet number")
	}
	s.history.Add(sp)
	s.bytesInFlight += sp.Size
	if sp.Retransmittable {
		s.retransmittableInFlight++
	}
}

// RecordSent is OnPacketSent for a connection's send path: it records
// a retransmittable transmission in a SentPacket the space recycles.
// Only the retransmittable frames are kept, in storage the SentPacket
// itself carries, and a STREAM frame is kept as the SentPacket's own
// copy: neither the frames slice nor a STREAM frame in it is retained,
// so the caller may reuse both at once, and two packets recorded from
// one frame list (an original and its duplicate) share no STREAM frame.
// Other retransmittable frames are immutable once built and are kept
// by reference.
func (s *Space) RecordSent(pn wire.PacketNumber, frames []wire.Frame, size int, now time.Duration) {
	sp := s.history.Next()
	*sp = SentPacket{PN: pn, Size: size, SentTime: now, Retransmittable: true}
	sp.Frames = sp.inline[:0]
	nStreams := 0
	for _, f := range frames {
		if !f.Retransmittable() {
			continue
		}
		if sf, ok := f.(*wire.StreamFrame); ok {
			if nStreams < sentInlineStreams {
				sp.streams[nStreams] = *sf
				f = &sp.streams[nStreams]
				nStreams++
			} else {
				extra := *sf // beyond the inline slots: a heap copy
				f = &extra
			}
		}
		sp.Frames = append(sp.Frames, f)
	}
	s.OnPacketSent(sp)
}

// AckResult reports the outcome of processing one ACK frame. NewlyAcked
// and Lost are Space-owned scratch (see Space).
type AckResult struct {
	NewlyAcked []*SentPacket
	Lost       []*SentPacket
	// HasRTTSample is set when the largest acked packet was newly
	// acked (sample = now − sentTime − ackDelay, applied to the
	// estimator already).
	HasRTTSample bool
	SampleRTT    time.Duration
	// CongestionEvent is set when Lost contains a packet sent after
	// the last window cutback — the caller should invoke the
	// congestion controller exactly once.
	CongestionEvent bool
}

// OnAck processes an ACK frame for this space at virtual time now.
func (s *Space) OnAck(ack *wire.AckFrame, now time.Duration) AckResult {
	var res AckResult
	largest := ack.LargestAcked()
	if largest == wire.InvalidPacketNumber {
		return res
	}
	s.history.Reclaim()
	if s.largestAcked == wire.InvalidPacketNumber || largest > s.largestAcked {
		s.largestAcked = largest
	}
	// Collect newly acked packets.
	res.NewlyAcked = s.ackedScratch[:0]
	for _, sp := range s.history.Live() {
		if sp.settled {
			continue
		}
		if sp.PN > largest {
			break
		}
		if ack.Acks(sp.PN) {
			s.settle(sp)
			res.NewlyAcked = append(res.NewlyAcked, sp)
			if sp.PN == largest {
				sample := now - sp.SentTime
				if sample > 0 {
					s.est.Update(sample, ack.AckDelay)
					res.HasRTTSample = true
					res.SampleRTT = sample
				}
			}
		}
	}
	s.ackedScratch = res.NewlyAcked
	if len(res.NewlyAcked) > 0 {
		s.est.ResetBackoff()
	}
	res.Lost = s.detectLost(now)
	s.history.Trim()
	res.CongestionEvent = s.cut(res.Lost)
	return res
}

// cut reports whether lost, in PN order, opens a new loss episode: the
// controller decreases once per window.
func (s *Space) cut(lost []*SentPacket) bool {
	return len(lost) > 0 && s.cutback.Cut(uint64(lost[len(lost)-1].PN), uint64(s.nextPN))
}

// detectLost applies packet- and time-threshold loss detection.
func (s *Space) detectLost(now time.Duration) []*SentPacket {
	if s.largestAcked == wire.InvalidPacketNumber {
		return nil
	}
	lost := s.lostScratch[:0]
	s.lossTime = 0
	threshold := s.timeThreshold()
	for _, sp := range s.history.Live() {
		if sp.settled {
			continue
		}
		if sp.PN >= s.largestAcked {
			break
		}
		pnLost := s.largestAcked >= sp.PN+PacketThreshold
		timeLost := threshold > 0 && sp.SentTime+threshold <= now
		if pnLost || timeLost {
			s.settle(sp)
			lost = append(lost, sp)
			continue
		}
		if threshold > 0 && s.lossTime == 0 {
			s.lossTime = sp.SentTime + threshold
		}
	}
	s.lostScratch = lost
	return lost
}

func (s *Space) timeThreshold() time.Duration {
	srtt := s.est.SmoothedRTT()
	if l := s.est.LatestRTT(); l > srtt {
		srtt = l
	}
	if srtt == 0 {
		return 0
	}
	return srtt * timeThresholdNum / timeThresholdDen
}

// LossTime returns the deadline at which OnLossTimer should run, or 0.
func (s *Space) LossTime() time.Duration { return s.lossTime }

// OnLossTimer re-runs time-threshold detection (the early-retransmit
// timer fired). The caller applies a congestion event if reported.
func (s *Space) OnLossTimer(now time.Duration) ([]*SentPacket, bool) {
	s.history.Reclaim()
	lost := s.detectLost(now)
	s.history.Trim()
	return lost, s.cut(lost)
}

// OnRTO declares every outstanding retransmittable packet lost — the
// go-back behavior after a retransmission timeout — and backs off the
// estimator. The caller must invoke the congestion controller's OnRTO.
func (s *Space) OnRTO(now time.Duration) []*SentPacket {
	s.history.Reclaim()
	lost := s.lostScratch[:0]
	for _, sp := range s.history.Live() {
		if !sp.settled {
			s.settle(sp)
			lost = append(lost, sp)
		}
	}
	s.lostScratch = lost
	s.history.Trim()
	s.est.Backoff()
	return lost
}

// settle marks a packet acked or lost and removes it from in-flight
// accounting; it stays in the history until trimmed.
func (s *Space) settle(sp *SentPacket) {
	sp.settled = true
	s.bytesInFlight -= sp.Size
	if sp.Retransmittable {
		s.retransmittableInFlight--
	}
}

// OldestUnackedSentTime reports the send time of the oldest unsettled
// packet; ok is false when nothing is outstanding. RTO timers anchored
// here cannot be deferred by further transmissions on the same path.
func (s *Space) OldestUnackedSentTime() (time.Duration, bool) {
	for _, sp := range s.history.Live() {
		if !sp.settled {
			return sp.SentTime, true
		}
	}
	return 0, false
}
