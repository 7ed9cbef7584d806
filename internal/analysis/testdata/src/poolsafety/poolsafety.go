// Package poolsafety exercises the poolsafety analyzer: a pooled
// buffer, and every slice of it, must not be touched after
// PutPacketBuf.
package poolsafety

import "mpquic/internal/wire"

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
