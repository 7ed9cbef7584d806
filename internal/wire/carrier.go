package wire

import "mpquic/internal/slab"

// Struct mode hands the peer the packet itself, so what it is handed
// must be the peer's own: the sender builds every packet in scratch it
// reuses for the next one. A carrier is the Packet that copy lives in.
// Fill makes it; a PacketPool lends and takes back the carriers of a
// network that knows when the receiving handler has returned.

// Fill makes p a packet of its own with the given header and frames:
// the frame list, every ACK frame (ranges included) and every STREAM
// frame are copied by value into storage p keeps from one use to the
// next, so nothing p holds aliases scratch of whoever built frames.
// (A STREAM frame's Data is the stream's send buffer, not scratch, and
// stays shared.) Every other frame is immutable once built and is
// shared with the sender's retransmission state.
//
//mpq:noescape
func (p *Packet) Fill(hdr Header, largestAcked PacketNumber, frames []Frame) {
	p.Header, p.LargestAcked = hdr, largestAcked
	p.own.reset()
	p.Frames = p.Frames[:0]
	for _, f := range frames {
		switch fr := f.(type) {
		case *AckFrame:
			ack := p.own.ackFrame()
			ack.PathID, ack.AckDelay = fr.PathID, fr.AckDelay
			ack.Ranges = append(ack.Ranges[:0], fr.Ranges...)
			f = ack
		case *StreamFrame:
			sf := p.own.streamFrame()
			*sf = *fr
			f = sf
		}
		p.Frames = append(p.Frames, f)
	}
}

// PacketPool is a free list of struct-mode carriers with one owner: a
// datagram carrier that sees every exit of the packets it lent (as
// netem's pool sees every exit of Datagram.Raw, but not shared between
// goroutines). Carriers come from slabs and keep the
// capacity of their frame list and of their FrameArena across loans.
// The zero value is ready to use.
type PacketPool struct {
	carriers slab.List[carrier]
}

// carrier is a packet together with the room an ordinary data packet
// fills — a few frames, an ACK and two STREAM frames among them — so
// that a carrier costs the pool nothing beyond its share of a slab, and
// its ACK ranges one allocation as they grow.
type carrier struct {
	Packet
	pool    *PacketPool // the pool the carrier belongs to
	frames  [4]Frame
	acks    [1]AckFrame
	streams [2]StreamFrame
}

// Get lends a carrier, to be filled with Fill and handed back with
// Return once nothing reads it any more.
func (pl *PacketPool) Get() *Packet {
	c := pl.carriers.Get()
	if c.pool == nil { // fresh from a slab
		c.pool = pl
		c.Frames = c.frames[:0]
		c.own.acks, c.own.streams = c.acks[:], c.streams[:]
	}
	c.lent = c
	return &c.Packet
}

// Return hands a carrier back to the pool that lent it. Any other packet
// is left alone: one that was never lent belongs to whoever made it (a
// sender that did not borrow, who may keep it), and one that already
// came back must not be listed twice — two later loans would share it.
func (p *Packet) Return() {
	c := p.lent
	if c == nil {
		return
	}
	p.lent = nil
	c.pool.carriers.Put(c)
}

// Len reports how many carriers are in the pool, not out on loan.
func (pl *PacketPool) Len() int { return pl.carriers.Len() }
