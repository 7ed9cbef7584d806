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
	// Reinjected marks packets whose frames were proactively
	// duplicated onto another path (tail reinjection), so each packet
	// is reinjected at most once.
	Reinjected bool

	acked, lost bool
	// owned marks a packet the Space allocated (RecordSent) and may
	// therefore recycle; caller-built packets are left to the GC.
	owned   bool
	inline  [sentInlineFrames]wire.Frame        // backs Frames of owned packets
	streams [sentInlineStreams]wire.StreamFrame // the STREAM frames among them
}

// Space tracks the sent half of one packet-number space.
//
// The slices a Space returns — AckResult.NewlyAcked and Lost, the
// OnLossTimer and OnRTO results, Outstanding — are scratch the Space
// owns, valid until the next call of the method that produced them
// (OnAck, OnLossTimer and OnRTO share theirs); callers consume them on
// the spot. The settled SentPackets they point to stay intact at least
// until the next OnAck, OnLossTimer or OnRTO, which is when packets
// the Space allocated itself become eligible for reuse.
type Space struct {
	est *rtt.Estimator

	// packets[head:] is the PN-ordered history; settled packets are
	// trimmed from its front by advancing head, and the live part is
	// moved down when the dead prefix outgrows it, so the backing array
	// is reused instead of walked through.
	packets []*SentPacket
	head    int
	// settled counts the acked-or-lost packets still in packets[head:],
	// so trim decides whether to compact without recounting the window.
	settled int

	// free holds recycled owned packets. retired holds the ones trimmed
	// since the last OnAck/OnLossTimer/OnRTO began: that call's result
	// still points at them, so they join free only when the next one
	// begins.
	free    []*SentPacket
	retired []*SentPacket

	// Result scratch, see the type comment.
	ackedScratch []*SentPacket
	lostScratch  []*SentPacket
	outScratch   []*SentPacket

	nextPN        wire.PacketNumber
	largestAcked  wire.PacketNumber
	bytesInFlight int
	// retransmittableInFlight counts unsettled retransmittable packets.
	retransmittableInFlight int
	lossTime                time.Duration // earliest time-threshold deadline (0 = none)

	// Congestion-event filtering: one decrease per window.
	largestSentAtLastCutback wire.PacketNumber
	hasCutback               bool
}

// NewSpace builds a space feeding RTT samples into est.
func NewSpace(est *rtt.Estimator) *Space {
	return &Space{
		est:          est,
		largestAcked: wire.InvalidPacketNumber,
	}
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
	if len(s.packets) > s.head && sp.PN <= s.packets[len(s.packets)-1].PN {
		panic("recovery: non-monotonic packet number")
	}
	s.packets = append(s.packets, sp)
	s.bytesInFlight += sp.Size
	if sp.Retransmittable {
		s.retransmittableInFlight++
	}
}

// RecordSent is OnPacketSent for a connection's send path: it records
// a retransmittable transmission in a SentPacket recycled from the
// space's free list. Only the retransmittable frames are kept, in
// storage the SentPacket itself carries, and a STREAM frame is kept as
// the SentPacket's own copy: neither the frames slice nor a STREAM
// frame in it is retained, so the caller may reuse both at once, and two
// packets recorded from one frame list (a duplicate, a reinjection)
// share no STREAM frame. Other retransmittable frames are immutable once
// built and are kept by reference.
func (s *Space) RecordSent(pn wire.PacketNumber, frames []wire.Frame, size int, now time.Duration) {
	var sp *SentPacket
	if n := len(s.free); n > 0 {
		sp = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		sp = new(SentPacket)
	}
	*sp = SentPacket{PN: pn, Size: size, SentTime: now, Retransmittable: true, owned: true}
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

// reclaim opens a result-producing call: the packets retired under the
// previous result are now unreferenced and may be handed out again.
func (s *Space) reclaim() {
	s.free = append(s.free, s.retired...)
	clear(s.retired)
	s.retired = s.retired[:0]
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
	s.reclaim()
	if s.largestAcked == wire.InvalidPacketNumber || largest > s.largestAcked {
		s.largestAcked = largest
	}
	// Collect newly acked packets.
	res.NewlyAcked = s.ackedScratch[:0]
	for _, sp := range s.packets[s.head:] {
		if sp.acked || sp.lost {
			continue
		}
		if sp.PN > largest {
			break
		}
		if ack.Acks(sp.PN) {
			sp.acked = true
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
	s.trim()
	if len(res.Lost) > 0 {
		res.CongestionEvent = s.registerCongestion(res.Lost)
	}
	return res
}

// registerCongestion applies once-per-window filtering and returns
// whether the controller should decrease.
func (s *Space) registerCongestion(lost []*SentPacket) bool {
	var largestLost wire.PacketNumber
	for _, sp := range lost {
		if sp.PN > largestLost {
			largestLost = sp.PN
		}
	}
	if !s.hasCutback || largestLost >= s.largestSentAtLastCutback {
		s.largestSentAtLastCutback = s.nextPN
		s.hasCutback = true
		return true
	}
	return false
}

// detectLost applies packet- and time-threshold loss detection.
func (s *Space) detectLost(now time.Duration) []*SentPacket {
	if s.largestAcked == wire.InvalidPacketNumber {
		return nil
	}
	lost := s.lostScratch[:0]
	s.lossTime = 0
	threshold := s.timeThreshold()
	for _, sp := range s.packets[s.head:] {
		if sp.acked || sp.lost {
			continue
		}
		if sp.PN >= s.largestAcked {
			break
		}
		pnLost := s.largestAcked >= sp.PN+PacketThreshold
		timeLost := threshold > 0 && sp.SentTime+threshold <= now
		if pnLost || timeLost {
			sp.lost = true
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
	s.reclaim()
	lost := s.detectLost(now)
	s.trim()
	if len(lost) == 0 {
		return nil, false
	}
	return lost, s.registerCongestion(lost)
}

// OnRTO declares every outstanding retransmittable packet lost — the
// go-back behavior after a retransmission timeout — and backs off the
// estimator. The caller must invoke the congestion controller's OnRTO.
func (s *Space) OnRTO(now time.Duration) []*SentPacket {
	s.reclaim()
	lost := s.lostScratch[:0]
	for _, sp := range s.packets[s.head:] {
		if sp.acked || sp.lost {
			continue
		}
		sp.lost = true
		s.settle(sp)
		lost = append(lost, sp)
	}
	s.lostScratch = lost
	s.trim()
	s.est.Backoff()
	return lost
}

// settle removes a packet from in-flight accounting. The caller has
// just marked it acked or lost; it stays in the history until trim.
func (s *Space) settle(sp *SentPacket) {
	s.settled++
	s.bytesInFlight -= sp.Size
	if sp.Retransmittable {
		s.retransmittableInFlight--
	}
}

// retire drops the history's reference to a settled packet and queues
// it for recycling if the Space owns it.
func (s *Space) retire(i int) {
	if sp := s.packets[i]; sp.owned {
		s.retired = append(s.retired, sp)
	}
	s.packets[i] = nil
}

// trim drops settled packets from the head of the history.
func (s *Space) trim() {
	for s.head < len(s.packets) && (s.packets[s.head].acked || s.packets[s.head].lost) {
		s.retire(s.head)
		s.head++
		s.settled--
	}
	live := s.packets[s.head:]
	// Compact interior garbage occasionally.
	if len(live) > 64 && s.settled > len(live)/2 {
		kept := s.head
		for i := s.head; i < len(s.packets); i++ {
			if sp := s.packets[i]; sp.acked || sp.lost {
				s.retire(i)
			} else {
				s.packets[kept] = sp
				kept++
			}
		}
		clear(s.packets[kept:])
		s.packets = s.packets[:kept]
		s.settled = 0
		live = s.packets[s.head:]
	}
	// Reuse the dead prefix once it is at least as long as what lives
	// (amortized O(1) per packet).
	if s.head > 0 && s.head >= len(live) {
		n := copy(s.packets, live)
		clear(s.packets[n:])
		s.packets = s.packets[:n]
		s.head = 0
	}
}

// OldestUnackedSentTime reports the send time of the oldest unsettled
// packet; ok is false when nothing is outstanding. RTO timers anchored
// here cannot be deferred by further transmissions on the same path.
func (s *Space) OldestUnackedSentTime() (time.Duration, bool) {
	for _, sp := range s.packets[s.head:] {
		if !sp.acked && !sp.lost {
			return sp.SentTime, true
		}
	}
	return 0, false
}

// Outstanding returns the unsettled packets (oldest first) in
// Space-owned scratch, valid until the next Outstanding call.
func (s *Space) Outstanding() []*SentPacket {
	out := s.outScratch[:0]
	for _, sp := range s.packets[s.head:] {
		if !sp.acked && !sp.lost {
			out = append(out, sp)
		}
	}
	s.outScratch = out
	return out
}
