package core

import (
	"time"

	"mpquic/internal/netem"
	"mpquic/internal/trace"
	"mpquic/internal/wire"
)

// trySend drains everything currently sendable: handshake messages,
// scheduled data packets (with duplication), and pending pure ACKs. It
// is the single transmission entry point. Nothing in a pass calls back
// into the connection, and a DatagramSender runs no handler inside
// Send, so a pass is never re-entered. While HandleDatagram is
// deferring (see Conn.deferring) it only notes that a send is owed.
func (c *Conn) trySend() {
	if c.closed {
		return
	}
	if c.deferring {
		c.held = true
		return
	}
	c.held = false
	c.sendPass()
	c.resetTimer()
}

func (c *Conn) sendPass() {
	c.sendHandshake()
	c.sendPathCtrl()
	c.sendData()
	c.sendPureAcks()
}

// sendPathCtrl flushes path-pinned control queues on their own paths.
// These packets bypass the congestion window: they are small, rare and
// critical (a WINDOW_UPDATE stuck behind a full window would deadlock
// the transfer; a PATHS frame stuck on a failed path would defeat
// §4.3's fast handover).
func (c *Conn) sendPathCtrl() {
	if !c.handshakeComplete {
		return
	}
	for _, p := range c.paths {
		for len(p.ctrl) > 0 {
			frames, budget, room := c.startPacket(p)
			frames, budget = takeCtrl(frames, &p.ctrl, budget)
			c.sendPacket(p, frames, room-budget, false, true)
		}
	}
}

// sendHandshake emits pending CHLO/SHLO messages on path 0, padded to
// a full packet as Google QUIC pads its client hello.
func (c *Conn) sendHandshake() {
	p0 := c.path(0)
	if p0 == nil {
		return
	}
	if c.chloPending && c.role == RoleClient {
		c.chloPending = false
		c.sendHandshakePacket(p0, &wire.HandshakeFrame{Message: wire.HandshakeCHLO, Payload: c.hsClient.CHLO()})
	}
	if c.shloPending && c.role == RoleServer {
		c.shloPending = false
		frames := []wire.Frame{&wire.HandshakeFrame{Message: wire.HandshakeSHLO, Payload: c.shloPayload}}
		// Bundle the ack of the CHLO so the client gets an immediate
		// RTT sample.
		if p0.ackMgr.Due(c.now()) {
			if ack, _ := p0.buildAck(c.now()); ack != nil {
				frames = append([]wire.Frame{ack}, frames...)
			}
		}
		c.sendPacket(p0, frames, framesSize(frames), true, true)
	}
}

func (c *Conn) sendHandshakePacket(p *Path, hs *wire.HandshakeFrame) {
	frames := []wire.Frame{hs}
	pad := wire.MaxPacketSize - c.headerSize(p, true) - hs.EncodedSize()
	if pad > 0 {
		frames = append(frames, &wire.PaddingFrame{Length: pad})
	}
	c.sendPacket(p, frames, framesSize(frames), true, true)
}

// sendData runs the scheduler loop, building packets until nothing is
// pending or no path has window space.
func (c *Conn) sendData() {
	if !c.handshakeComplete {
		return
	}
	for i := 0; i < 1<<16; i++ { // defensive bound; loop exits naturally
		if !c.hasSendableData() {
			return
		}
		primary, duplicates := c.schedule()
		if primary == nil {
			return
		}
		frames, payload, hasData := c.packFrames(primary)
		if len(frames) == 0 {
			return
		}
		c.sendPacket(primary, frames, payload, false, true)
		if hasData {
			for _, dup := range duplicates {
				c.Stats.DuplicatedPackets++
				c.sendPacket(dup, c.dupFrames(frames), payload-c.txAckSize, false, true)
			}
		}
	}
}

// buildAck builds the path's pending ACK and returns it with its
// encoded size, or nil when nothing was received yet. The frame is the
// path's scratch, valid until the path's next ACK is built — by then
// sendPacket has serialized or copied it, and recovery keeps no ACK
// frames.
func (p *Path) buildAck(now time.Duration) (*wire.AckFrame, int) {
	size := p.ackMgr.BuildAckInto(&p.ackFrame, now)
	if size == 0 {
		return nil, 0
	}
	return &p.ackFrame, size
}

// startPacket starts the frame list of a protected packet on path p,
// taking the send scratch back from the previous one: the path's ACK
// when one is due and fits. It returns the list, the payload budget
// left and room, the budget an empty list would have left: builders
// count budget down by every frame they add, so room minus what is left
// when they stop is the size of the packet's frames, and no frame is
// sized twice. (The ACK comes with its size, which the ack manager keeps
// as its ranges change; txAckSize keeps it for a duplicate, which leaves
// the ACK out.)
func (c *Conn) startPacket(p *Path) (frames []wire.Frame, budget, room int) {
	room = wire.MaxPacketSize - c.headerSize(p, false) - wire.AEADOverhead
	budget = room
	frames = c.txFrames[:0]
	c.txStreams = c.txStreams[:0]
	c.txAckSize = 0
	if now := c.now(); p.ackMgr.Due(now) {
		if ack, size := p.buildAck(now); ack != nil && size <= budget {
			frames = append(frames, ack)
			budget -= size
			c.txAckSize = size
		}
	}
	return frames, budget, room
}

// dupFrames strips non-duplicable frames (ACKs belong to the original
// path's context) from a duplicated packet: what startPacket put in,
// txAckSize bytes of it.
func (c *Conn) dupFrames(frames []wire.Frame) []wire.Frame {
	out := c.txDupFrames[:0]
	for _, f := range frames {
		if _, isAck := f.(*wire.AckFrame); isAck {
			continue
		}
		out = append(out, f)
	}
	return out
}

// hasSendableData reports whether a data/control packet could be
// built right now.
func (c *Conn) hasSendableData() bool {
	if len(c.ctrl) > 0 {
		return true
	}
	for _, p := range c.paths {
		if len(p.ctrl) > 0 {
			return true
		}
	}
	connAllow := c.connFC.SendAllowance()
	for _, s := range c.streams {
		if s.send.HasRetransmission() {
			return true
		}
		if !s.send.HasData() {
			continue
		}
		// New data needs both flow-control levels open; a pending
		// bare FIN needs none.
		if s.send.UnsentBytes() > 0 {
			if connAllow > 0 && s.fc.SendAllowance() > 0 {
				return true
			}
			continue
		}
		return true // bare FIN pending
	}
	return false
}

// packFrames assembles the frame list for one packet on path p: the
// path's pending ACK, path-pinned control frames, floating control
// frames, then stream data under flow control. payload is the encoded
// size of the frames together. STREAM frames are built in txStreams and,
// like the list, are the connection's until the next startPacket.
func (c *Conn) packFrames(p *Path) (frames []wire.Frame, payload int, hasData bool) {
	frames, budget, room := c.startPacket(p)
	// Path-pinned control frames (WINDOW_UPDATE broadcast copies,
	// PATHS frames).
	frames, budget = takeCtrl(frames, &p.ctrl, budget)
	// Floating control frames: any path will do (§3 — the scheduler
	// also decides which control frame goes on which path).
	frames, budget = takeCtrl(frames, &c.ctrl, budget)
	// Stream data.
	for _, s := range c.streams {
		for budget > 24 && s.send.HasData() {
			allow := c.connFC.SendAllowance()
			if sa := s.fc.SendAllowance(); sa < allow {
				allow = sa
			}
			var sf wire.StreamFrame
			used, ok := s.send.NextFrameInto(&sf, budget, allow)
			if !ok {
				break
			}
			// Growing txStreams moves it; frames already in the list
			// stay valid where they are.
			c.txStreams = append(c.txStreams, sf)
			f := &c.txStreams[len(c.txStreams)-1]
			if used > 0 {
				s.fc.AddBytesSent(used)
				c.connFC.AddBytesSent(used)
			}
			frames = append(frames, f)
			budget -= f.EncodedSize()
			hasData = true
		}
	}
	return frames, room - budget, hasData
}

// framesSize is the encoded size of a frame list whose builder kept no
// count (handshake and close packets).
func framesSize(frames []wire.Frame) int {
	n := 0
	for _, f := range frames {
		n += f.EncodedSize()
	}
	return n
}

// takeCtrl moves control frames from the head of queue into the packet
// while they fit, and returns the frame list and the budget left.
func takeCtrl(frames []wire.Frame, queue *[]wire.Frame, budget int) ([]wire.Frame, int) {
	q := *queue
	for len(q) > 0 && q[0].EncodedSize() <= budget {
		frames = append(frames, q[0])
		budget -= q[0].EncodedSize()
		q = q[1:]
	}
	*queue = q
	return frames, budget
}

// sendPureAcks emits ack-only packets for paths that still owe an ACK
// after the data pass: building an ACK resets its path's rule, so a
// path whose ACK went out earlier in the pass owes none. Ack-only
// packets bypass the congestion window and are not retransmittable.
func (c *Conn) sendPureAcks() {
	now := c.now()
	for _, p := range c.paths {
		if !p.ackMgr.Due(now) {
			continue
		}
		if ack, size := p.buildAck(now); ack != nil {
			c.sendPacket(p, append(c.txFrames[:0], ack), size, false, true)
		}
	}
}

// headerSize computes the public header cost on path p.
func (c *Conn) headerSize(p *Path, handshake bool) int {
	h := wire.Header{
		ConnID:       c.connID,
		Multipath:    c.cfg.Multipath,
		Handshake:    handshake,
		PathID:       p.ID,
		PacketNumber: p.space.LargestSent(),
	}
	return h.EncodedSize(p.space.LargestAcked())
}

// sendPacket builds, tracks and transmits one packet on path p; payload
// is the encoded size of frames. track=false is used for
// fire-and-forget CONNECTION_CLOSE. Nothing it is given is kept past the
// call — frames and its STREAM frames may be the connection's scratch
// and an ACK frame the path's — so this is where the two modes part:
// wire mode serializes the packet, struct mode copies it out.
func (c *Conn) sendPacket(p *Path, frames []wire.Frame, payload int, handshake, track bool) {
	if len(frames) == 0 {
		return
	}
	pn := p.space.NextPacketNumber()
	hdr := wire.Header{
		ConnID:       c.connID,
		Multipath:    c.cfg.Multipath,
		Handshake:    handshake,
		PathID:       p.ID,
		PacketNumber: pn,
	}
	largestAcked := p.space.LargestAcked()
	// What wire.Packet.EncodedSize would say, without sizing every frame
	// again.
	size := hdr.EncodedSize(largestAcked) + payload + wire.UDPIPv4Overhead
	if !handshake {
		size += wire.AEADOverhead
	}
	now := c.now()
	if track && wire.AnyRetransmittable(frames) {
		p.space.RecordSent(pn, frames, size, now)
		p.lastRetransmittableSent = now
	}
	p.SentPackets++
	p.SentBytes += uint64(size)
	c.Stats.PacketsSent++
	c.Stats.BytesSent += uint64(size)
	if c.cfg.Tracer != nil {
		c.trace(trace.Event{Type: trace.PacketSent, Path: uint8(p.ID), PN: uint64(pn), Size: size, Cwnd: p.cc.Cwnd()})
	}

	dg := netem.Datagram{From: p.Local, To: p.Remote, Size: size}
	if c.cfg.WireSerialization {
		var sealer wire.Sealer
		if !handshake {
			sealer = c.sealSend
		}
		pkt := wire.Packet{Header: hdr, Frames: frames, LargestAcked: largestAcked} // stays on the stack
		dg.Raw = pkt.EncodeTo(wire.GetPacketBuf(), sealer)
	} else {
		// The peer receives the packet itself, so it gets one of its own:
		// on loan from a carrier that takes it back after delivery, or
		// else fresh and left to whoever ends up holding it.
		var own *wire.Packet
		if c.lender != nil {
			own = c.lender.LendPacket()
		} else {
			own = new(wire.Packet)
		}
		own.Fill(hdr, largestAcked, frames)
		dg.Payload = own
	}
	c.net.Send(dg)
}
