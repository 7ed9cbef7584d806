package tcpsim

import (
	"fmt"

	"mpquic/internal/netem"
	"mpquic/internal/stream"
	"mpquic/internal/trace"
)

// established runs once the flow's handshake finished.
func (c *Conn) established() {
	c.trace(trace.Event{Type: trace.HandshakeDone})
	if c.onEstablished != nil {
		c.onEstablished()
	}
	c.trySend()
}

// --- receiving ---

// HandleDatagram implements netem.Handler.
func (c *Conn) HandleDatagram(dg netem.Datagram) {
	if c.closed {
		return
	}
	seg, ok := dg.Payload.(*Segment)
	if !ok {
		return
	}
	c.lastRecvTime = c.now()

	// Track the peer's receive window from every segment, including
	// handshake flights (the SYN-ACK carries the first window).
	if lim := seg.AckNum + seg.Window; lim > c.peerLimit {
		c.peerLimit = lim
	}

	if !c.Established() || seg.SYN || seg.Ctl != CtlNone {
		consumed, done := c.Handshake(seg)
		// The server completes the 3WHS on the client's bare ACK — its
		// own segment without TLS, which answers it with a flight — or
		// on data, which implies the handshake completed at the peer.
		bareAck := seg.ACK && !c.cfg.TLS
		if !consumed && (bareAck || seg.Len > 0 || seg.FIN) && c.Accept() {
			done = true
			consumed = bareAck && seg.Len == 0 && !seg.FIN
		}
		if done {
			c.established()
		}
		if consumed {
			return
		}
	}

	// ACK processing: cumulative ack, SACK blocks, loss detection.
	if seg.ACK {
		_, lost := c.OnAck(seg)
		c.requeue(lost)
	}
	// Payload processing.
	if seg.Len > 0 || seg.FIN {
		c.processPayload(seg)
	}
	c.trySend()
	c.armTimers()
}

// requeue returns lost records' unacked bytes to the rtx queue. A lost
// FIN needs no entry: trySend re-attaches it to the final segment.
func (c *Conn) requeue(lost []*Record) {
	for _, r := range lost {
		c.trace(trace.Event{Type: trace.PacketLost, PN: r.TxSeq, Size: r.WireSize})
		var missing stream.IntervalSet
		missing.Add(r.SeqStart, r.SeqEnd)
		missing.Remove(0, c.cumAcked)
		for _, iv := range c.sacked.Intervals() {
			missing.Remove(iv.Start, iv.End)
		}
		for _, iv := range missing.Intervals() {
			c.rtxQueue.Add(iv.Start, iv.End)
		}
	}
}

// processPayload ingests data and schedules acknowledgments.
func (c *Conn) processPayload(seg *Segment) {
	before := c.received.Size()
	c.Receive(seg, seg.FIN)
	if seg.FIN {
		c.finRecvd = true
		c.finRecvSeq = seg.End()
	}
	if c.onData != nil && (c.received.Size() > before || seg.FIN) {
		c.onData()
	}
	if c.AckQueued() {
		c.sendAck()
	}
}

// --- sending ---

// cumAckNum is the receiver's cumulative acknowledgment number.
func (c *Conn) cumAckNum() uint64 { return c.received.FirstMissingFrom(0) }

// advertisedWindow is the classic TCP window: buffer not yet tied up.
func (c *Conn) advertisedWindow() uint64 {
	used := c.cumAckNum() - c.consumed
	if used >= c.cfg.RecvWindow {
		return 0
	}
	return c.cfg.RecvWindow - used
}

func (c *Conn) ackFields(seg *Segment) {
	c.FillAck(seg)
	if c.finRecvd && seg.AckNum >= c.finRecvSeq {
		seg.AckNum = c.finRecvSeq + 1 // ack the FIN
	}
	seg.Window = c.advertisedWindow()
	c.lastAdvWnd = seg.Window
}

func (c *Conn) sendAck() {
	seg := &Segment{}
	c.ackFields(seg)
	c.Transmit(seg)
}

// trySend transmits retransmissions first (in sequence, as TCP must),
// then new data, bounded by the congestion window and the peer's
// receive window.
func (c *Conn) trySend() {
	if c.closed || !c.Established() {
		return
	}
	for c.HasWindow(MSS + headerBase) {
		var seg *Segment
		var rec *Record
		if !c.rtxQueue.Empty() {
			iv := c.rtxQueue.Pop(MSS)
			seg = &Segment{Seq: iv.Start, Len: int(iv.Len()), EchoRTX: true}
			rec = c.Sent(iv.Start, iv.End, true, seg.Len+headerBase)
			seg.FIN = c.finQueued && iv.End == c.writeOffset
		} else if c.sndNxt < c.writeOffset && c.sndNxt < c.peerLimit {
			n := c.writeOffset - c.sndNxt
			if n > MSS {
				n = MSS
			}
			if room := c.peerLimit - c.sndNxt; n > room {
				n = room
			}
			seg = &Segment{Seq: c.sndNxt, Len: int(n)}
			rec = c.Sent(c.sndNxt, c.sndNxt+n, false, seg.Len+headerBase)
			seg.FIN = c.finQueued && c.sndNxt == c.writeOffset
		} else if c.finQueued && c.sndNxt == c.writeOffset && !c.FinAcked() && !c.finInFlight() {
			seg = &Segment{Seq: c.sndNxt, FIN: true}
			rec = c.Sent(c.sndNxt, c.sndNxt, false, headerBase)
		} else {
			break
		}
		rec.Fin = seg.FIN
		c.ackFields(seg) // piggyback ack+window on every data segment
		c.Transmit(seg)
	}
	c.armTimers()
}

func (c *Conn) finInFlight() bool {
	for _, r := range c.records {
		if !r.Settled && r.Fin {
			return true
		}
	}
	return false
}

// --- timers ---

func (c *Conn) onRTO() {
	if c.closed || !c.Established() {
		return
	}
	if c.cfg.IdleTimeout > 0 && c.now()-c.lastRecvTime >= c.cfg.IdleTimeout {
		c.closeWith(errIdle)
		return
	}
	if c.AckDue() {
		c.sendAck()
	}
	if c.RTOExpired() {
		c.requeue(c.OnRTO())
		c.trace(trace.Event{Type: trace.RTOFired, Cwnd: c.Cwnd()})
		c.trySend()
	}
	c.armTimers()
}

func (c *Conn) armTimers() {
	if c.closed {
		return
	}
	deadline := c.Deadline()
	if c.cfg.IdleTimeout > 0 {
		deadline = min(deadline, c.lastRecvTime+c.cfg.IdleTimeout)
	}
	ArmTimer(c.rtoTimer, c.clock, deadline)
}

var errIdle = fmt.Errorf("tcpsim: idle timeout")

func (c *Conn) closeWith(err error) {
	if c.closed {
		return
	}
	c.closed = true
	c.closeErr = err
	c.StopHandshake()
	c.rtoTimer.Stop()
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	c.trace(trace.Event{Type: trace.ConnClosed, Detail: detail})
	if c.onClosed != nil {
		c.onClosed(err)
	}
}
