package mptcpsim

import (
	"cmp"
	"slices"

	"mpquic/internal/netem"
	"mpquic/internal/tcpsim"
	"mpquic/internal/trace"
)

// subflowEstablished runs once a subflow's handshake finished.
// Subflow 0 carries the secure handshake: the client opens its joins
// before the application hears of it.
func (c *Conn) subflowEstablished(sf *Subflow) {
	c.Trace(trace.Event{Type: trace.PathOpened, Path: sf.ID, Detail: string(sf.Local) + "->" + string(sf.Remote)})
	if sf.ID != 0 {
		c.Send()
		return
	}
	if c.isClient {
		c.startJoins()
	}
	c.HandshakeDone()
}

// startJoins opens one additional subflow per extra address pair —
// each needing its own 3-way handshake before any data (the MPTCP
// handicap §3 contrasts with MPQUIC's data-in-first-packet).
func (c *Conn) startJoins() {
	n := len(c.locals)
	if len(c.remotes) < n {
		n = len(c.remotes)
	}
	for i := 1; i < n; i++ {
		c.addSubflow(uint8(i), c.locals[i], c.remotes[i]).Connect()
	}
}

// --- receiving ---

func (c *Conn) handleSegment(dg netem.Datagram, seg *tcpsim.Segment) {
	if c.Closed() {
		return
	}
	sf := c.SubflowByID(seg.SubflowID)
	if sf == nil {
		if !seg.SYN {
			return
		}
		// Server side learns a joined subflow from its SYN.
		sf = c.addSubflow(seg.SubflowID, dg.To, dg.From)
	}
	c.Heard()

	// Data-level window and ack are on every segment.
	if lim := seg.DataAck + seg.Window; lim > c.peerDataLimit {
		c.peerDataLimit = lim
	}
	if seg.DataAck > c.dataAcked {
		c.dataAcked = seg.DataAck
		c.pruneReinjectQueue()
	}

	consumed, done := sf.Handshake(seg)
	if done {
		c.subflowEstablished(sf)
	}
	if consumed {
		return
	}
	if seg.ACK {
		progress, lost := sf.OnAck(seg)
		if progress && sf.potentiallyFailed {
			sf.potentiallyFailed = false // data acked: path works (§4.3)
			c.Trace(trace.Event{Type: trace.PathRecovered, Path: sf.ID})
		}
		for _, r := range lost {
			c.Trace(trace.Event{Type: trace.PacketLost, Path: sf.ID, PN: r.TxSeq, Size: r.WireSize})
			sf.requeueLocal(r)
		}
	}
	if seg.Len > 0 || seg.DataFin {
		c.processPayload(sf, seg)
	}
	c.Send()
}

// processPayload puts a data segment's bytes into the stream at their
// DSS mapping.
func (c *Conn) processPayload(sf *Subflow, seg *tcpsim.Segment) {
	before := c.dataReceived.Size()
	finSeq := seg.DataSeq
	if !seg.DataFinOnly {
		finSeq += uint64(seg.Len)
		c.dataReceived.Add(seg.DataSeq, finSeq)
	}
	sf.Receive(seg, seg.DataFin)
	c.Delivered(sf.Flow, before, seg.DataFin, finSeq)
}

// --- acks ---

func (c *Conn) ackFields(sf *tcpsim.Flow, seg *tcpsim.Segment) {
	sf.FillAck(seg)
	c.stamp(seg, sf.ID)
	seg.DataAck = c.dataReceived.FirstMissingFrom(0)
	c.Advertise(seg)
}

// sendAck sends a bare acknowledgment on subflow sf.
func (c *Conn) sendAck(sf *tcpsim.Flow) {
	seg := sf.NewSegment()
	c.ackFields(sf, seg)
	sf.Transmit(seg)
}

// --- sending ---

// eligible returns established subflows usable by the scheduler:
// non-PF ones, or all established subflows when every one is PF. The
// slice is connection scratch, valid until the next call.
func (c *Conn) eligible() []*Subflow {
	els := c.eligibleBuf[:0]
	for _, sf := range c.subflows {
		if sf.Established() && !sf.potentiallyFailed {
			els = append(els, sf)
		}
	}
	if len(els) == 0 {
		for _, sf := range c.subflows {
			if sf.Established() {
				els = append(els, sf)
			}
		}
	}
	c.eligibleBuf = els
	return els
}

// bestSubflow picks the lowest-smoothed-RTT eligible subflow with
// window space (the Linux default scheduler, §3).
func (c *Conn) bestSubflow() *Subflow {
	var best *Subflow
	for _, sf := range c.eligible() {
		if !sf.cwndAvailable() {
			continue
		}
		if best == nil || sf.RTT().SmoothedRTT() < best.RTT().SmoothedRTT() {
			best = sf
		}
	}
	return best
}

func (c *Conn) trySend() {
	for {
		sent := false
		// 1. In-subflow retransmissions first, on their own subflow
		//    (sequence integrity).
		els := c.eligible()
		slices.SortStableFunc(els, func(a, b *Subflow) int {
			return cmp.Compare(a.RTT().SmoothedRTT(), b.RTT().SmoothedRTT())
		})
		for _, sf := range els {
			for len(sf.rtxQueue) > 0 && sf.cwndAvailable() {
				ch := sf.rtxQueue[0]
				sf.rtxQueue = sf.rtxQueue[1:]
				c.sendMapped(sf, ch.sfStart, ch.sfEnd, ch.dataStart, ch.dataEnd, ch.dataFin, true)
				sent = true
			}
		}
		// 2. Connection-level reinjections (PF handover, ORP) on the
		//    best available subflow with fresh subflow sequence space.
		for len(c.reinjectQueue) > 0 {
			sf := c.bestSubflow()
			if sf == nil {
				break
			}
			ch := c.reinjectQueue[0]
			c.reinjectQueue = c.reinjectQueue[1:]
			if ch.end <= c.dataAcked && !ch.dataFin {
				continue // already delivered via another subflow
			}
			n := ch.end - ch.start
			if n == 0 && ch.dataFin {
				n = 1 // bare DATA_FIN carrier
			}
			c.sendMapped(sf, sf.SndNxt(), sf.SndNxt()+n, ch.start, ch.end, ch.dataFin, false)
			sent = true
		}
		// 3. New data on the best subflow.
		for {
			if c.dataNxt >= c.Written || c.dataNxt >= c.peerDataLimit {
				break
			}
			sf := c.bestSubflow()
			if sf == nil {
				break
			}
			n := c.Written - c.dataNxt
			if n > MSS {
				n = MSS
			}
			if room := c.peerDataLimit - c.dataNxt; n > room {
				n = room
			}
			fin := c.FinQueued && c.dataNxt+n == c.Written
			c.sendMapped(sf, sf.SndNxt(), sf.SndNxt()+n, c.dataNxt, c.dataNxt+n, fin, false)
			c.dataNxt += n
			if fin {
				c.finAssigned = true
			}
			sent = true
		}
		// 4. Bare DATA_FIN.
		if c.FinQueued && !c.finAssigned && c.dataNxt == c.Written {
			if sf := c.bestSubflow(); sf != nil {
				c.sendMapped(sf, sf.SndNxt(), sf.SndNxt()+1, c.Written, c.Written, true, false)
				c.finAssigned = true
				sent = true
			}
		}
		if !sent {
			break
		}
	}
	c.maybeORP()
}

// maybeORP applies Opportunistic Retransmission and Penalization
// (§4.1): when the shared receive window stalls the transfer and a
// faster subflow sits idle, the oldest un-data-acked chunk (owned by
// another subflow) is reinjected on the idle subflow and the owner is
// penalized with a halved window.
func (c *Conn) maybeORP() {
	if !c.cfg.ORP {
		return
	}
	blocked := c.dataNxt < c.Written && c.dataNxt >= c.peerDataLimit
	if !blocked {
		return
	}
	if c.lastORPAt == c.dataAcked && c.orpArmed {
		return // one reinjection per stall point
	}
	idle := c.bestSubflow()
	if idle == nil || idle.InFlight() > 0 {
		return
	}
	// Find the owner of the oldest un-data-acked chunk.
	var owner *Subflow
	var chunk dataChunk
	for _, sf := range c.subflows {
		for _, r := range sf.Records() {
			if r.Settled() || r.DataEnd <= c.dataAcked || r.DataStart > c.dataAcked {
				continue
			}
			owner = sf
			chunk = dataChunk{start: r.DataStart, end: r.DataEnd, dataFin: r.DataFin}
			break
		}
		if owner != nil {
			break
		}
	}
	if owner == nil || owner == idle {
		return
	}
	n := chunk.end - chunk.start
	c.sendMapped(idle, idle.SndNxt(), idle.SndNxt()+n, chunk.start, chunk.end, chunk.dataFin, false)
	c.lastORPAt = c.dataAcked
	c.orpArmed = true
	c.Stats.Reinjections++
	// Penalize the slow owner at most once per its RTT.
	now := c.nw.Clock().Now().Duration()
	if now-owner.lastPenalty >= owner.RTT().SmoothedRTT() {
		owner.CC().OnCongestionEvent()
		owner.lastPenalty = now
		c.Stats.Penalizations++
	}
}

// sendMapped emits one data-bearing segment on sf with the given
// subflow-sequence and data-sequence mapping.
func (c *Conn) sendMapped(sf *Subflow, sfStart, sfEnd, dataStart, dataEnd uint64, dataFin, isRtx bool) {
	seg := sf.NewSegment()
	seg.Seq, seg.Len = sfStart, int(sfEnd-sfStart)
	seg.DataSeq, seg.DataFin = dataStart, dataFin
	if dataStart == dataEnd && dataFin {
		// Bare DATA_FIN carrier: one subflow byte, no app payload.
		seg.DataFinOnly = true
		seg.DataSeq = dataEnd
	}
	c.ackFields(sf.Flow, seg)
	rec := sf.Sent(sfStart, sfEnd, isRtx, seg.WireSize())
	rec.DataStart, rec.DataEnd, rec.DataFin = dataStart, dataEnd, dataFin
	sf.DataBytesSent += dataEnd - dataStart
	sf.Transmit(seg)
}

func (c *Conn) pruneReinjectQueue() {
	kept := c.reinjectQueue[:0]
	for _, ch := range c.reinjectQueue {
		if ch.end > c.dataAcked || ch.dataFin {
			kept = append(kept, ch)
		}
	}
	c.reinjectQueue = kept
	c.orpArmed = false
}

// --- timers ---

// onSubflowRTO marks the subflow potentially failed, requeues its
// outstanding data locally (in-sequence) AND reinjects it at the
// connection level so other subflows can carry it — the Linux MPTCP
// handover behavior the paper compares against (§4.3).
func (c *Conn) onSubflowRTO(f *tcpsim.Flow) {
	sf := c.SubflowByID(f.ID)
	for _, r := range sf.OnRTO() {
		c.Trace(trace.Event{Type: trace.PacketLost, Path: sf.ID, PN: r.TxSeq, Size: r.WireSize})
		sf.requeueLocal(r)
		if r.DataEnd > c.dataAcked || r.DataFin {
			c.reinjectQueue = append(c.reinjectQueue, dataChunk{start: r.DataStart, end: r.DataEnd, dataFin: r.DataFin})
			c.Stats.Reinjections++
		}
	}
	c.Trace(trace.Event{Type: trace.RTOFired, Path: sf.ID, Cwnd: sf.Cwnd()})
	if len(c.eligible()) > 1 {
		sf.potentiallyFailed = true
		c.Trace(trace.Event{Type: trace.PathFailed, Path: sf.ID})
	}
}
