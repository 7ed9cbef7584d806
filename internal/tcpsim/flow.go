package tcpsim

import (
	"time"

	"mpquic/internal/cc"
	"mpquic/internal/netem"
	"mpquic/internal/rtt"
	"mpquic/internal/sim"
	"mpquic/internal/stream"
	"mpquic/internal/trace"
)

// handshake states.
type hsState int

const (
	hsIdle hsState = iota
	hsSynSent
	hsSynReceived
	hsTLSClientHello // client sent flight 1, awaiting server flight 1
	hsTLSServerDone  // server sent flight 1, awaiting client flight 2
	hsTLSClientFin   // client sent flight 2, awaiting server flight 2
	hsEstablished    // secure, app data may flow
)

// flight is the segment a flow in handshake state s keeps sending
// until the peer answers it.
func flight(s hsState) *Segment {
	switch s {
	case hsSynSent:
		return &Segment{SYN: true}
	case hsSynReceived:
		return &Segment{SYN: true, ACK: true}
	case hsTLSClientHello:
		return &Segment{ACK: true, Ctl: CtlTLSClient1}
	case hsTLSServerDone:
		return &Segment{ACK: true, Ctl: CtlTLSServer1}
	case hsTLSClientFin:
		return &Segment{ACK: true, Ctl: CtlTLSClient2}
	}
	return nil
}

// dupThresh is the FACK-style reordering threshold (the dup-ack
// analog): a segment is lost once 3 later transmissions are acked.
const dupThresh = 3

// Never is the Deadline of a flow that is waiting for nothing.
const Never = time.Duration(1<<62 - 1)

// Record tracks one transmitted segment for loss detection. One is
// allocated per segment: the bools sit together to keep it in the
// 64-byte size class (TestRecordStaysInTCPSizeClass).
type Record struct {
	TxSeq    uint64 // transmission order
	SeqStart uint64
	SeqEnd   uint64
	sentTime time.Duration
	WireSize int
	// DSS mapping of the payload into an MPTCP connection's byte
	// stream, so lost data can be reinjected at the connection level
	// (set by mptcpsim; zero for plain TCP).
	DataStart, DataEnd uint64
	DataFin            bool
	// Fin marks a TCP FIN riding after the payload: it consumes one
	// sequence number past SeqEnd that only the cumulative ACK — never
	// a SACK block — can cover.
	Fin     bool
	IsRtx   bool
	Settled bool // acked or declared lost
}

// Stats counts one flow's activity.
type Stats struct {
	SegmentsSent uint64
	BytesSent    uint64
	// SegmentsLost counts segments declared lost (FACK threshold or
	// RTO) and handed back to the owner for retransmission.
	SegmentsLost   uint64
	Retransmits    uint64
	RTOCount       uint64
	FastRetransmit uint64
	EstablishedAt  time.Duration
}

// Flow is the machine of one TCP flow — a whole plain-TCP connection,
// or one subflow of an MPTCP connection: the SYN/SYN-ACK/TLS handshake,
// the RTT estimator and congestion controller, the send scoreboard
// (cumulative ACK + SACK coverage, FACK loss marking, Karn's rule, RTO
// collapse) and the receiver's delayed-ACK and SACK policy, all in the
// flow's own sequence space. What the bytes mean (a byte stream with a
// FIN, or DSS-mapped chunks of a shared stream), what to retransmit
// and when timers fire belong to the owner, which learns the flow's
// decisions from return values.
type Flow struct {
	// ID is the path number the flow carries in traces and samples:
	// the MPTCP subflow ID, 0 for plain TCP.
	ID     uint8
	Local  netem.Addr
	Remote netem.Addr

	net   *netem.Network
	clock *sim.Clock
	tls   bool
	stamp func(*Segment)

	state    hsState
	hsTimer  *sim.Timer
	hsSentAt time.Duration // when the current handshake flight left
	est      *rtt.Estimator
	cc       cc.Controller

	// --- send scoreboard ---
	sndNxt        uint64
	records       []*Record
	lost          []*Record // scratch: the list OnAck/OnRTO hand out
	liveRtx       int       // live retransmission records (out of seq order)
	nextTxSeq     uint64
	highestAckTx  uint64 // highest txSeq acked/sacked (FACK)
	hasAckTx      bool
	bytesInFlight int
	cumAcked      uint64 // peer's cumulative ack (sndUna)
	sacked        stream.IntervalSet
	finAcked      bool
	lastSent      time.Duration
	lastProgress  time.Duration // last ack progress (restarts the RTO)
	cutbackTx     uint64
	hasCutback    bool

	// --- receive side ---
	received    stream.IntervalSet
	unackedSegs int
	ackQueued   bool
	ackDeadline time.Duration

	Stats Stats
}

// NewFlow creates an idle flow between local and remote. ctl is its
// congestion controller; tls adds the 2-RTT TLS 1.2 exchange to the
// 3-way handshake. stamp completes every handshake segment before it
// leaves (receive window, MPTCP options): those are the owner's.
func NewFlow(nw *netem.Network, id uint8, local, remote netem.Addr, ctl cc.Controller, tls bool, stamp func(*Segment)) *Flow {
	f := &Flow{
		ID:     id,
		Local:  local,
		Remote: remote,
		net:    nw,
		clock:  nw.Clock(),
		tls:    tls,
		stamp:  stamp,
		est:    rtt.New(rtt.DefaultTCP()),
		cc:     ctl,
	}
	f.hsTimer = sim.NewTimer(f.clock, f.onHandshakeTimeout)
	return f
}

func (f *Flow) now() time.Duration { return f.clock.Now().Duration() }

// Established reports whether the handshake finished and data may flow.
func (f *Flow) Established() bool { return f.state == hsEstablished }

// RTT exposes the estimator (coarse, Karn-limited).
func (f *Flow) RTT() *rtt.Estimator { return f.est }

// CC exposes the congestion controller.
func (f *Flow) CC() cc.Controller { return f.cc }

// Cwnd reports the congestion window in bytes.
func (f *Flow) Cwnd() int { return f.cc.Cwnd() }

// BytesReceived reports distinct flow-sequence bytes received.
func (f *Flow) BytesReceived() uint64 { return f.received.Size() }

// InFlight reports the wire bytes of unsettled records.
func (f *Flow) InFlight() int { return f.bytesInFlight }

// SndNxt is the first flow sequence number never sent.
func (f *Flow) SndNxt() uint64 { return f.sndNxt }

// Records returns the scoreboard in transmission order; settled
// records linger until trimmed.
func (f *Flow) Records() []*Record { return f.records }

// HasWindow reports whether the congestion window has room for
// another segment of segSize wire bytes.
func (f *Flow) HasWindow(segSize int) bool { return f.bytesInFlight+segSize <= f.cc.Cwnd() }

// SampleInto appends the flow's PathSample to rec, stamped with the
// current simulated time. Sampling only reads state; attaching a
// sampler never changes a run's schedule or results.
func (f *Flow) SampleInto(rec *trace.SeriesRecorder) {
	rec.Add(trace.PathSample{
		T:          f.now(),
		Path:       f.ID,
		Cwnd:       f.cc.Cwnd(),
		SRTT:       f.est.SmoothedRTT(),
		InFlight:   f.bytesInFlight,
		BytesSent:  f.Stats.BytesSent,
		BytesAcked: f.cumAcked,
		SlowStart:  f.cc.InSlowStart(),
	})
}

// Transmit puts seg on the wire.
func (f *Flow) Transmit(seg *Segment) {
	size := seg.WireSize()
	f.Stats.SegmentsSent++
	f.Stats.BytesSent += uint64(size)
	f.net.Send(netem.Datagram{From: f.Local, To: f.Remote, Size: size, Payload: seg})
}

// --- handshake ---

// sendHandshake transmits one handshake segment. Flights are stop-and-
// wait, so one departure timestamp suffices for their RTT samples.
func (f *Flow) sendHandshake(seg *Segment) {
	f.stamp(seg)
	f.hsSentAt = f.now()
	f.Transmit(seg)
}

// enter moves the handshake to state s and sends its flight, which
// the timer repeats until the peer answers.
func (f *Flow) enter(s hsState) {
	f.state = s
	f.sendHandshake(flight(s))
	f.hsTimer.ResetAfter(f.est.RTO())
}

// Connect starts the active open: the SYN goes out immediately.
func (f *Flow) Connect() { f.enter(hsSynSent) }

func (f *Flow) onHandshakeTimeout() {
	if f.state == hsEstablished {
		return
	}
	f.est.Backoff()
	f.enter(f.state)
}

// Handshake advances the connection-setup state machine on a segment
// that arrived before establishment or carries SYN or a TLS flight.
// consumed reports a pure handshake message — nothing in it for the
// ack and payload paths — and established that this segment finished
// the handshake.
func (f *Flow) Handshake(seg *Segment) (consumed, established bool) {
	switch {
	case seg.SYN && seg.ACK: // client got SYN-ACK
		if f.state != hsSynSent {
			break
		}
		f.est.Update(f.now()-f.hsSentAt, 0)
		if f.tls {
			f.enter(hsTLSClientHello)
		} else {
			f.sendHandshake(&Segment{ACK: true})
			established = f.establish()
		}
	case seg.SYN: // server got SYN (or a retransmitted SYN)
		if f.state == hsIdle {
			f.state = hsSynReceived
		}
		f.sendHandshake(flight(hsSynReceived))
		f.hsTimer.ResetAfter(f.est.RTO())
	case seg.Ctl == CtlTLSClient1: // server
		if f.state == hsSynReceived || f.state == hsTLSServerDone {
			f.enter(hsTLSServerDone)
		}
	case seg.Ctl == CtlTLSServer1: // client
		if f.state == hsTLSClientHello {
			f.est.Update(f.now()-f.hsSentAt, 0)
			f.enter(hsTLSClientFin)
		}
	case seg.Ctl == CtlTLSClient2: // server
		if f.state == hsTLSServerDone {
			f.sendHandshake(&Segment{ACK: true, Ctl: CtlTLSServer2})
			established = f.establish()
		} else if f.state == hsEstablished {
			// Client flight was retransmitted: our final flight got
			// lost; resend it.
			f.sendHandshake(&Segment{ACK: true, Ctl: CtlTLSServer2})
		}
	case seg.Ctl == CtlTLSServer2: // client
		if f.state == hsTLSClientFin {
			f.est.Update(f.now()-f.hsSentAt, 0)
			established = f.establish()
		}
	default:
		return false, false
	}
	return true, established
}

// Accept completes the passive open of a flow still in SYN-received,
// on the owner's verdict that the segment at hand (the client's bare
// ACK, or data, which implies the handshake completed at the peer)
// does so. It reports whether the flow became established.
func (f *Flow) Accept() bool { return f.state == hsSynReceived && f.establish() }

func (f *Flow) establish() bool {
	if f.state == hsEstablished {
		return false
	}
	f.state = hsEstablished
	f.hsTimer.Stop()
	f.est.ResetBackoff()
	f.Stats.EstablishedAt = f.now()
	return true
}

// StopHandshake cancels the handshake timer of a closing owner.
func (f *Flow) StopHandshake() { f.hsTimer.Stop() }

// --- send scoreboard ---

// Sent records the transmission of flow bytes [start, end) in a segment
// of wireSize bytes and returns the record for the owner to annotate
// (Fin, DSS mapping). A retransmission resends sequence numbers below
// SndNxt.
func (f *Flow) Sent(start, end uint64, isRtx bool, wireSize int) *Record {
	if isRtx {
		f.liveRtx++
		f.Stats.Retransmits++
	}
	r := &Record{
		TxSeq:    f.nextTxSeq,
		SeqStart: start,
		SeqEnd:   end,
		IsRtx:    isRtx,
		sentTime: f.now(),
		WireSize: wireSize,
	}
	f.nextTxSeq++
	f.records = append(f.records, r)
	f.bytesInFlight += wireSize
	f.lastSent = r.sentTime
	if end > f.sndNxt {
		f.sndNxt = end
	}
	return r
}

func (f *Flow) settle(r *Record) {
	r.Settled = true
	if r.IsRtx {
		f.liveRtx--
	}
	f.bytesInFlight -= r.WireSize
}

// OnAck applies a segment's cumulative ack and SACK blocks: it settles
// covered records, feeds the RTT estimator and the congestion
// controller, and marks FACK losses, cutting the window back once per
// loss episode. progress reports newly acknowledged records; lost
// holds the records declared lost, for the owner to requeue, and is
// valid until the next OnAck or OnRTO.
func (f *Flow) OnAck(seg *Segment) (progress bool, lost []*Record) {
	if seg.AckNum > f.cumAcked {
		f.cumAcked = seg.AckNum
	}
	for _, b := range seg.SACK {
		f.sacked.Add(b.Start, b.End)
	}
	// The scoreboard below the cumulative ack is dead weight; pruning
	// it keeps Contains cheap on long transfers.
	f.sacked.Remove(0, f.cumAcked)
	maxCover := f.cumAcked
	if ivs := f.sacked.Intervals(); len(ivs) > 0 {
		if end := ivs[len(ivs)-1].End; end > maxCover {
			maxCover = end
		}
	}
	// Settle records and collect RTT samples / cc credit. Fresh-data
	// records are in increasing SeqStart order, so once past maxCover
	// only out-of-order retransmission records can still match.
	var newlyAckedBytes int
	rtxLeft := f.liveRtx
	for _, r := range f.records {
		if r.Settled {
			continue
		}
		if r.IsRtx {
			rtxLeft--
		}
		if r.SeqStart >= maxCover {
			if rtxLeft <= 0 && !r.IsRtx {
				break // nothing later can be covered
			}
			continue // beyond everything acknowledged: cannot be covered
		}
		var covered bool
		if r.Fin {
			covered = f.cumAcked >= r.SeqEnd+1
			if covered {
				f.finAcked = true
			}
		} else {
			covered = r.SeqEnd <= f.cumAcked ||
				(r.SeqStart < r.SeqEnd && f.sacked.Contains(r.SeqStart, r.SeqEnd))
		}
		if !covered {
			continue
		}
		f.settle(r)
		progress = true
		newlyAckedBytes += int(r.SeqEnd - r.SeqStart)
		if r.TxSeq > f.highestAckTx || !f.hasAckTx {
			f.highestAckTx = r.TxSeq
			f.hasAckTx = true
			// Karn's algorithm: never sample retransmissions.
			if !r.IsRtx {
				f.est.Update(f.now()-r.sentTime, 0)
			}
		}
	}
	if progress {
		f.est.ResetBackoff()
		f.lastProgress = f.now() // ack progress restarts the RTO timer
		f.cc.OnPacketAcked(newlyAckedBytes, f.est.SmoothedRTT())
	}
	// FACK loss detection: lost when dupThresh later transmissions
	// are acked.
	f.lost = f.lost[:0]
	if f.hasAckTx {
		for _, r := range f.records {
			if r.TxSeq+dupThresh > f.highestAckTx {
				break // records are in transmission order
			}
			if !r.Settled {
				f.settle(r)
				f.lost = append(f.lost, r)
			}
		}
	}
	if len(f.lost) > 0 {
		f.Stats.FastRetransmit++
		f.Stats.SegmentsLost += uint64(len(f.lost))
		// Transmission order: the last lost record is the latest sent.
		if !f.hasCutback || f.lost[len(f.lost)-1].TxSeq >= f.cutbackTx {
			f.cutbackTx = f.nextTxSeq
			f.hasCutback = true
			f.cc.OnCongestionEvent()
		}
	}
	f.trimRecords()
	return progress, f.lost
}

// FinAcked reports whether the peer's cumulative ack covered a Fin
// record.
func (f *Flow) FinAcked() bool { return f.finAcked }

// rtoBase is the anchor of the retransmission timer: the later of the
// last transmission and the last acknowledgment progress (Linux
// restarts the RTO on every ACK that advances SND.UNA).
func (f *Flow) rtoBase() time.Duration {
	if f.lastProgress > f.lastSent {
		return f.lastProgress
	}
	return f.lastSent
}

// RTOExpired reports whether the retransmission timer ran out with
// data outstanding.
func (f *Flow) RTOExpired() bool {
	return f.bytesInFlight > 0 && f.now()-f.rtoBase() >= f.est.RTO()
}

// OnRTO takes a retransmission timeout: go-back — everything
// outstanding is declared lost, the window collapses and the RTO backs
// off. The lost records, for the owner to requeue in sequence, are
// valid until the next OnAck or OnRTO.
func (f *Flow) OnRTO() []*Record {
	f.Stats.RTOCount++
	f.lost = f.lost[:0]
	for _, r := range f.records {
		if !r.Settled {
			f.settle(r)
			f.lost = append(f.lost, r)
		}
	}
	f.Stats.SegmentsLost += uint64(len(f.lost))
	f.trimRecords()
	f.est.Backoff()
	f.cc.OnRTO()
	f.hasCutback = false
	return f.lost
}

// trimRecords drops the settled head of the scoreboard. Nothing
// settled lingers behind it for long: a record sent after the highest
// acked transmission is never settled, and FACK marking settles every
// record dupThresh or more transmissions before it.
func (f *Flow) trimRecords() {
	i := 0
	for i < len(f.records) && f.records[i].Settled {
		i++
	}
	f.records = f.records[i:]
}

// --- receive side ---

// Receive ingests a data-bearing segment and decides when to
// acknowledge it: at once for every second segment, out-of-order data
// and a segment carrying the owner's FIN (fin), otherwise within 25 ms.
func (f *Flow) Receive(seg *Segment, fin bool) {
	if seg.Len > 0 {
		f.received.Add(seg.Seq, seg.End())
	}
	f.unackedSegs++
	outOfOrder := false
	if ivs := f.received.Intervals(); len(ivs) > 0 {
		outOfOrder = f.received.FirstMissingFrom(0) < ivs[len(ivs)-1].End
	}
	if f.unackedSegs >= 2 || outOfOrder || fin {
		f.ackQueued = true
	} else if f.ackDeadline == 0 {
		f.ackDeadline = f.now() + 25*time.Millisecond
	}
}

// AckQueued reports an acknowledgment owed now.
func (f *Flow) AckQueued() bool { return f.ackQueued }

// AckDue reports an expired delayed-ack deadline.
func (f *Flow) AckDue() bool { return f.ackDeadline != 0 && f.now() >= f.ackDeadline }

// FillAck writes the flow's cumulative ack and SACK blocks into seg
// (every data segment piggybacks them) and clears the owed ack.
func (f *Flow) FillAck(seg *Segment) {
	seg.ACK = true
	seg.AckNum = f.received.FirstMissingFrom(0)
	seg.SACK = buildSACK(f.received.Intervals(), seg.AckNum)
	f.ackQueued = false
	f.ackDeadline = 0
	f.unackedSegs = 0
}

// --- timers ---

// Deadline is the earliest instant the flow needs its owner's timer:
// the retransmission timeout while data is outstanding, or the
// delayed-ack deadline; Never when neither is pending.
func (f *Flow) Deadline() time.Duration {
	d := Never
	if f.bytesInFlight > 0 {
		d = f.rtoBase() + f.est.RTO()
	}
	if f.ackDeadline != 0 && f.ackDeadline < d {
		d = f.ackDeadline
	}
	return d
}

// ArmTimer points an owner's timer at deadline (the earliest of its
// flows' Deadlines and its idle timeout), or stops it at Never.
func ArmTimer(t *sim.Timer, clock *sim.Clock, deadline time.Duration) {
	if deadline == Never {
		t.Stop()
		return
	}
	if now := clock.Now().Duration(); deadline < now {
		deadline = now
	}
	t.Reset(sim.Time(deadline))
}
