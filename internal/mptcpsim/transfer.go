package mptcpsim

import (
	"sort"

	"mpquic/internal/netem"
	"mpquic/internal/tcpsim"
	"mpquic/internal/trace"
)

// subflowEstablished runs once a subflow's handshake finished.
func (c *Conn) subflowEstablished(sf *Subflow) {
	c.trace(trace.Event{Type: trace.PathOpened, Path: sf.ID})
	if sf.ID == 0 && !c.established {
		c.established = true
		c.trace(trace.Event{Type: trace.HandshakeDone})
		if c.isClient {
			c.startJoins()
		}
		if c.onEstablished != nil {
			c.onEstablished()
		}
	}
	c.trySend()
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
	if c.closed {
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
	c.lastRecvTime = c.now()

	// Data-level window and ack are on every segment.
	if lim := seg.DataAck + seg.Window; lim > c.peerDataLimit {
		c.peerDataLimit = lim
	}
	if seg.DataAck > c.dataAcked {
		c.dataAcked = seg.DataAck
		c.pruneReinjectQueue()
	}

	if !sf.Established() || seg.SYN || seg.Ctl != tcpsim.CtlNone {
		consumed, done := sf.Handshake(seg)
		// Any further segment (the bare ACK, or data) completes the
		// server-side 3WHS, and goes on to the ack and payload paths
		// unless it is empty.
		if !consumed && sf.Accept() {
			done = true
			consumed = seg.Len == 0 && !seg.ACK
		}
		if done {
			c.subflowEstablished(sf)
		}
		if consumed {
			return
		}
	}
	if seg.ACK {
		progress, lost := sf.OnAck(seg)
		if progress && sf.potentiallyFailed {
			sf.potentiallyFailed = false // data acked: path works (§4.3)
			c.trace(trace.Event{Type: trace.PathRecovered, Path: sf.ID})
		}
		for _, r := range lost {
			c.trace(trace.Event{Type: trace.PacketLost, Path: sf.ID, PN: r.TxSeq, Size: r.WireSize})
			sf.requeueLocal(r)
		}
	}
	if seg.Len > 0 || seg.DataFin {
		c.processPayload(sf, seg)
	}
	c.trySend()
	c.armTimer()
}

func (c *Conn) processPayload(sf *Subflow, seg *tcpsim.Segment) {
	newBytes := uint64(0)
	if seg.Len > 0 && !seg.DataFinOnly {
		before := c.dataReceived.Size()
		c.dataReceived.Add(seg.DataSeq, seg.DataSeq+uint64(seg.Len))
		newBytes = c.dataReceived.Size() - before
	}
	sf.Receive(seg, seg.DataFin)
	if seg.DataFin {
		c.dataFinRecvd = true
		if seg.DataFinOnly {
			c.dataFinSeq = seg.DataSeq
		} else {
			c.dataFinSeq = seg.DataSeq + uint64(seg.Len)
		}
	}
	if c.onData != nil && (newBytes > 0 || seg.DataFin) {
		c.onData()
	}
	if sf.AckQueued() {
		c.sendAck(sf)
	}
}

// --- acks ---

func (c *Conn) dataCumAck() uint64 { return c.dataReceived.FirstMissingFrom(0) }

func (c *Conn) advertisedWindow() uint64 {
	used := c.dataCumAck() - c.consumed
	if used >= c.cfg.RecvWindow {
		return 0
	}
	return c.cfg.RecvWindow - used
}

func (c *Conn) ackFields(sf *Subflow, seg *tcpsim.Segment) {
	sf.FillAck(seg)
	c.stamp(seg, sf.ID)
	seg.DataAck = c.dataCumAck()
	seg.Window = c.advertisedWindow()
	c.lastAdvWnd = seg.Window
}

func (c *Conn) sendAck(sf *Subflow) {
	seg := &tcpsim.Segment{}
	c.ackFields(sf, seg)
	sf.Transmit(seg)
}

// --- sending ---

// eligible returns established subflows usable by the scheduler:
// non-PF ones, or all established subflows when every one is PF.
func (c *Conn) eligible() []*Subflow {
	var healthy, all []*Subflow
	for _, sf := range c.subflows {
		if !sf.Established() {
			continue
		}
		all = append(all, sf)
		if !sf.potentiallyFailed {
			healthy = append(healthy, sf)
		}
	}
	if len(healthy) > 0 {
		return healthy
	}
	return all
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
	if c.closed || !c.established {
		return
	}
	for {
		sent := false
		// 1. In-subflow retransmissions first, on their own subflow
		//    (sequence integrity).
		els := c.eligible()
		sort.Slice(els, func(i, j int) bool {
			return els[i].RTT().SmoothedRTT() < els[j].RTT().SmoothedRTT()
		})
		for _, sf := range els {
			for len(sf.rtxQueue) > 0 && sf.cwndAvailable() {
				ch := sf.rtxQueue[0]
				sf.rtxQueue = sf.rtxQueue[1:]
				c.sendMapped(sf, ch.sfStart, ch.sfEnd, ch.dataStart, ch.dataEnd, ch.dataFin, true, false)
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
			c.sendMapped(sf, sf.SndNxt(), sf.SndNxt()+n, ch.start, ch.end, ch.dataFin, false, true)
			sent = true
		}
		// 3. New data on the best subflow.
		for {
			if c.dataNxt >= c.writeOffset || c.dataNxt >= c.peerDataLimit {
				break
			}
			sf := c.bestSubflow()
			if sf == nil {
				break
			}
			n := c.writeOffset - c.dataNxt
			if n > MSS {
				n = MSS
			}
			if room := c.peerDataLimit - c.dataNxt; n > room {
				n = room
			}
			fin := c.finQueued && c.dataNxt+n == c.writeOffset
			c.sendMapped(sf, sf.SndNxt(), sf.SndNxt()+n, c.dataNxt, c.dataNxt+n, fin, false, false)
			c.dataNxt += n
			if fin {
				c.finAssigned = true
			}
			sent = true
		}
		// 4. Bare DATA_FIN.
		if c.finQueued && !c.finAssigned && c.dataNxt == c.writeOffset {
			if sf := c.bestSubflow(); sf != nil {
				c.sendMapped(sf, sf.SndNxt(), sf.SndNxt()+1, c.writeOffset, c.writeOffset, true, false, false)
				c.finAssigned = true
				sent = true
			}
		}
		if !sent {
			break
		}
	}
	c.maybeORP()
	// Flush owed acknowledgments.
	for _, sf := range c.subflows {
		if sf.Established() && sf.AckQueued() {
			c.sendAck(sf)
		}
	}
	c.armTimer()
}

// maybeORP applies Opportunistic Retransmission and Penalization
// (§4.1): when the shared receive window stalls the transfer and a
// faster subflow sits idle, the oldest un-data-acked chunk (owned by
// another subflow) is reinjected on the idle subflow and the owner is
// penalized with a halved window.
func (c *Conn) maybeORP() {
	if !c.cfg.ORP || c.closed {
		return
	}
	blocked := c.dataNxt < c.writeOffset && c.dataNxt >= c.peerDataLimit
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
			if r.Settled || r.DataEnd <= c.dataAcked || r.DataStart > c.dataAcked {
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
	c.sendMapped(idle, idle.SndNxt(), idle.SndNxt()+n, chunk.start, chunk.end, chunk.dataFin, false, true)
	c.lastORPAt = c.dataAcked
	c.orpArmed = true
	c.Stats.Reinjections++
	// Penalize the slow owner at most once per its RTT.
	now := c.now()
	if now-owner.lastPenalty >= owner.RTT().SmoothedRTT() {
		owner.CC().OnCongestionEvent()
		owner.lastPenalty = now
		c.Stats.Penalizations++
	}
}

// sendMapped emits one data-bearing segment on sf with the given
// subflow-sequence and data-sequence mapping.
func (c *Conn) sendMapped(sf *Subflow, sfStart, sfEnd, dataStart, dataEnd uint64, dataFin, isRtx, isReinject bool) {
	seg := &tcpsim.Segment{
		Seq:     sfStart,
		Len:     int(sfEnd - sfStart),
		DataSeq: dataStart,
		DataFin: dataFin,
		EchoRTX: isRtx,
	}
	if dataStart == dataEnd && dataFin {
		// Bare DATA_FIN carrier: one subflow byte, no app payload.
		seg.DataFinOnly = true
		seg.DataSeq = dataEnd
	}
	c.ackFields(sf, seg)
	rec := sf.Sent(sfStart, sfEnd, isRtx, seg.WireSize())
	rec.DataStart, rec.DataEnd, rec.DataFin = dataStart, dataEnd, dataFin
	sf.DataBytesSent += dataEnd - dataStart
	if isReinject {
		sf.Reinjections++
	}
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

func (c *Conn) onTimer() {
	if c.closed {
		return
	}
	if c.cfg.IdleTimeout > 0 && c.now()-c.lastRecvTime >= c.cfg.IdleTimeout {
		c.closeWith(errIdle)
		return
	}
	for _, sf := range c.subflows {
		if !sf.Established() {
			continue
		}
		if sf.AckDue() {
			c.sendAck(sf)
		}
		if sf.RTOExpired() {
			c.onSubflowRTO(sf)
		}
	}
	c.trySend()
	c.armTimer()
}

// onSubflowRTO marks the subflow potentially failed, requeues its
// outstanding data locally (in-sequence) AND reinjects it at the
// connection level so other subflows can carry it — the Linux MPTCP
// handover behavior the paper compares against (§4.3).
func (c *Conn) onSubflowRTO(sf *Subflow) {
	for _, r := range sf.OnRTO() {
		c.trace(trace.Event{Type: trace.PacketLost, Path: sf.ID, PN: r.TxSeq, Size: r.WireSize})
		sf.requeueLocal(r)
		if r.DataEnd > c.dataAcked || r.DataFin {
			c.reinjectQueue = append(c.reinjectQueue, dataChunk{start: r.DataStart, end: r.DataEnd, dataFin: r.DataFin})
			c.Stats.Reinjections++
		}
	}
	c.trace(trace.Event{Type: trace.RTOFired, Path: sf.ID, Cwnd: sf.Cwnd()})
	if len(c.eligible()) > 1 {
		sf.potentiallyFailed = true
		c.trace(trace.Event{Type: trace.PathFailed, Path: sf.ID})
	}
}

func (c *Conn) armTimer() {
	if c.closed {
		return
	}
	deadline := tcpsim.Never
	for _, sf := range c.subflows {
		if sf.Established() {
			deadline = min(deadline, sf.Deadline())
		}
	}
	if c.cfg.IdleTimeout > 0 {
		deadline = min(deadline, c.lastRecvTime+c.cfg.IdleTimeout)
	}
	tcpsim.ArmTimer(c.timer, c.clock, deadline)
}
