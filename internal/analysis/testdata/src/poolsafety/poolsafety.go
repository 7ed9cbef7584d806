// Package poolsafety exercises the poolsafety analyzer: pooled
// buffers must not be touched after PutPacketBuf, and DecodeBorrowed
// results must not escape the enclosing handler.
package poolsafety

import (
	"time"

	"mpquic/internal/sim"
	"mpquic/internal/wire"
)

func useAfterPut() byte {
	buf := wire.GetPacketBuf()
	buf = append(buf, 1)
	wire.PutPacketBuf(buf)
	return buf[0] // want `buf is used after wire\.PutPacketBuf`
}

func putThenReencode(p *wire.Packet) {
	buf := wire.GetPacketBuf()
	wire.PutPacketBuf(buf)
	_ = p.EncodeTo(buf, nil) // want `buf is used after wire\.PutPacketBuf`
}

// deferredPut is the sanctioned pattern: the Put runs on function
// exit, after every use.
func deferredPut(p *wire.Packet) int {
	buf := wire.GetPacketBuf()
	defer wire.PutPacketBuf(buf)
	buf = p.EncodeTo(buf, nil)
	return len(buf)
}

// A slice of a pooled buffer shares its backing array, so it dies
// with the buffer whichever of the two is handed back.
func resliceAlias(n int) byte {
	b := wire.GetPacketBuf()
	view := b[:n]
	wire.PutPacketBuf(b)
	return view[0] // want `view is used after wire\.PutPacketBuf returned b`
}

func resliceChain() byte {
	b := wire.GetPacketBuf()
	head := b[:64]
	tag := head[:16]
	wire.PutPacketBuf(head)
	return tag[0] // want `tag is used after wire\.PutPacketBuf returned head`
}

func putThroughAlias() int {
	buf := wire.GetPacketBuf()
	b := buf[:cap(buf)]
	wire.PutPacketBuf(b)
	return len(buf) // want `buf is used after wire\.PutPacketBuf returned b`
}

func doublePutThroughAlias() {
	b := wire.GetPacketBuf()
	view := b[:8]
	wire.PutPacketBuf(b)
	wire.PutPacketBuf(view) // want `view is used after wire\.PutPacketBuf returned b`
}

// deferredPutAlias: a deferred Put stays exempt for the whole group.
func deferredPutAlias(p *wire.Packet) int {
	buf := wire.GetPacketBuf()
	defer wire.PutPacketBuf(buf)
	view := p.EncodeTo(buf, nil)[:4]
	b := buf[:cap(buf)]
	return len(view) + len(b)
}

// unrelated buffers are separate groups: putting one leaves the other
// usable.
func twoBuffers() int {
	a, b := wire.GetPacketBuf(), wire.GetPacketBuf()
	wire.PutPacketBuf(a)
	n := len(b)
	wire.PutPacketBuf(b)
	return n
}

var lastPkt *wire.Packet

type holder struct{ pkt *wire.Packet }

func borrowReturn(b []byte) *wire.Packet {
	pkt, err := wire.DecodeBorrowed(b, wire.InvalidPacketNumber, nil)
	if err != nil {
		return nil
	}
	return pkt // want `returning pkt lets a DecodeBorrowed alias outlive the handler`
}

func borrowStoreField(h *holder, b []byte) {
	pkt, _ := wire.DecodeBorrowed(b, wire.InvalidPacketNumber, nil)
	h.pkt = pkt // want `storing pkt in a field/map/global`
}

func borrowStoreGlobal(b []byte) {
	pkt, _ := wire.DecodeBorrowed(b, wire.InvalidPacketNumber, nil)
	lastPkt = pkt // want `storing pkt in a field/map/global`
}

func borrowStoreMap(m map[int]*wire.Packet, b []byte) {
	pkt, _ := wire.DecodeBorrowed(b, wire.InvalidPacketNumber, nil)
	m[0] = pkt // want `storing pkt in a field/map/global`
}

func borrowScheduled(c *sim.Clock, b []byte) {
	pkt, _ := wire.DecodeBorrowed(b, wire.InvalidPacketNumber, nil)
	c.After(time.Millisecond, func() { // want `a scheduled closure captures pkt`
		_ = pkt.Frames
	})
}

func borrowDeferred(b []byte) {
	pkt, _ := wire.DecodeBorrowed(b, wire.InvalidPacketNumber, nil)
	defer func() { // want `a deferred closure captures pkt`
		_ = pkt.Frames
	}()
}

// borrowSynchronous is the sanctioned pattern: the packet is fully
// consumed before the handler returns, and only scalars escape.
func borrowSynchronous(b []byte) int {
	pkt, err := wire.DecodeBorrowed(b, wire.InvalidPacketNumber, nil)
	if err != nil {
		return 0
	}
	return len(pkt.Frames)
}

// allowed demonstrates an audited suppression.
func allowed(b []byte) *wire.Packet {
	pkt, _ := wire.DecodeBorrowed(b, wire.InvalidPacketNumber, nil)
	//mpqvet:allow poolsafety exemplar suppression for the analyzer tests
	return pkt
}
