package core

import (
	"reflect"

	"mpquic/internal/recovery"
)

// HandshakeComplete reports whether keys are established.
func (c *Conn) HandshakeComplete() bool { return c.handshakeComplete }

// Space returns the path's packet-number space.
func (p *Path) Space() *recovery.Space { return p.space }

// StrayDrops reports how many well-formed non-handshake packets the
// listener dropped because their Connection ID was unknown.
func (l *Listener) StrayDrops() uint64 { return l.strayDrops }

// FreeSent returns the sent-packet records waiting in the listener's
// free list, next to be lent first, and leaves the list as it was.
func (l *Listener) FreeSent() []*recovery.SentPacket {
	out := make([]*recovery.SentPacket, l.sent.Len())
	for i := range out {
		out[i] = l.sent.Get()
	}
	for i := len(out) - 1; i >= 0; i-- {
		l.sent.Put(out[i])
	}
	return out
}

// SentKeep is how many records the listener's free list keeps across a
// forget.
func (l *Listener) SentKeep() int { return sentKeep(l.cfg) }

// Forgotten reports how many forgotten connections still hold their
// records, waiting for HandleDatagram to return.
func (l *Listener) Forgotten() int { return len(l.forgotten) }

// Held returns the records the path's space holds: its log, settled or
// not, and the records retired since its last Reclaim. recovery keeps
// both unexported, so reflection reads them.
func (p *Path) Held() []*recovery.SentPacket {
	h := reflect.ValueOf(p.space).Elem().FieldByName("history")
	recs, retired := h.FieldByName("recs"), h.FieldByName("retired")
	var out []*recovery.SentPacket
	for i := int(h.FieldByName("head").Int()); i < recs.Len(); i++ {
		out = append(out, (*recovery.SentPacket)(recs.Index(i).UnsafePointer()))
	}
	for i := 0; i < retired.Len(); i++ {
		out = append(out, (*recovery.SentPacket)(retired.Index(i).UnsafePointer()))
	}
	return out
}
