package tcpsim

import (
	"mpquic/internal/netem"
	"mpquic/internal/trace"
)

// --- receiving ---

// HandleDatagram implements netem.Handler.
func (c *Conn) HandleDatagram(dg netem.Datagram) {
	if c.Closed() {
		return
	}
	seg, ok := dg.Payload.(*Segment)
	if !ok {
		return
	}
	c.Heard()

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
			c.HandshakeDone()
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
		before := c.received.Size()
		c.Receive(seg, seg.FIN)
		c.Delivered(c.Flow, before, seg.FIN, seg.End())
	}
	c.trySend()
	c.ArmTimer(c.Deadline())
}

// requeue returns lost records' unacked bytes — above the cumulative ack
// and outside every SACK block — to the rtx queue. A lost FIN needs no
// entry: trySend re-attaches it to the final segment.
func (c *Conn) requeue(lost []*Record) {
	for _, r := range lost {
		c.Trace(trace.Event{Type: trace.PacketLost, PN: r.TxSeq, Size: r.WireSize})
		c.rtxQueue.AddMissing(max(r.SeqStart, c.cumAcked), r.SeqEnd, &c.sacked)
	}
}

// --- sending ---

func (c *Conn) ackFields(seg *Segment) {
	c.FillAck(seg)
	if c.finRecvd && seg.AckNum >= c.finSeq {
		seg.AckNum = c.finSeq + 1 // ack the FIN
	}
	c.Advertise(seg)
}

// sendAck sends a bare acknowledgment on the connection's one flow.
func (c *Conn) sendAck(*Flow) {
	seg := c.NewSegment()
	c.ackFields(seg)
	c.Transmit(seg)
}

// trySend transmits retransmissions first (in sequence, as TCP must),
// then new data, bounded by the congestion window and the peer's
// receive window.
func (c *Conn) trySend() {
	if c.Closed() || !c.Established() {
		return
	}
	for c.HasWindow(MSS + headerBase) {
		var start, end uint64
		rtx := false
		if !c.rtxQueue.Empty() {
			iv := c.rtxQueue.Pop(MSS)
			start, end, rtx = iv.Start, iv.End, true
		} else if c.sndNxt < c.Written && c.sndNxt < c.peerLimit {
			start, end = c.sndNxt, c.sndNxt+min(c.Written-c.sndNxt, MSS, c.peerLimit-c.sndNxt)
		} else if c.FinQueued && c.sndNxt == c.Written && !c.FinAcked() && !c.finInFlight() {
			start, end = c.sndNxt, c.sndNxt // a bare FIN
		} else {
			break
		}
		seg := c.NewSegment()
		seg.Seq, seg.Len = start, int(end-start)
		seg.FIN = c.FinQueued && end == c.Written
		c.Sent(start, end, rtx, seg.Len+headerBase).Fin = seg.FIN
		c.ackFields(seg) // piggyback ack+window on every data segment
		c.Transmit(seg)
	}
	c.ArmTimer(c.Deadline())
}

func (c *Conn) finInFlight() bool {
	for _, r := range c.Records() {
		if !r.settled && r.Fin {
			return true
		}
	}
	return false
}

// --- timers ---

func (c *Conn) onRTO() {
	if c.Closed() || !c.Established() || c.IdleExpired() {
		return
	}
	if c.AckDue() {
		c.sendAck(c.Flow)
	}
	if c.RTOExpired() {
		c.requeue(c.OnRTO())
		c.Trace(trace.Event{Type: trace.RTOFired, Cwnd: c.Cwnd()})
		c.trySend()
	}
	c.ArmTimer(c.Deadline())
}
