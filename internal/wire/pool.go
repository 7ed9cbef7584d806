package wire

import "sync"

// packetBufCap is the capacity of pooled encode buffers: one full
// Ethernet MTU, comfortably above MaxPacketSize.
const packetBufCap = 1500

// packetBufPool recycles encode buffers as fixed-size array pointers so
// both Get and Put are allocation-free (a *[N]byte fits in an interface
// without boxing).
var packetBufPool = sync.Pool{
	New: func() any { return new([packetBufCap]byte) },
}

// GetPacketBuf returns an empty buffer with capacity for a full packet,
// recycled from the pool. Encode into it with Packet.EncodeTo and hand
// it back with PutPacketBuf once the bytes are no longer referenced.
func GetPacketBuf() []byte {
	return packetBufPool.Get().(*[packetBufCap]byte)[:0]
}

// PutPacketBuf returns a GetPacketBuf buffer to the pool. Only the
// buffer's current owner may call it, once: the encoder until the
// datagram is sent, then whatever carries it (netem.Network,
// live.Driver), after the handler or the socket write returned.
// Nothing may touch b (or anything aliasing it, e.g. frames decoded
// in place) afterwards. A slice of any other capacity did not come
// from GetPacketBuf and is left to the garbage collector.
//
//mpq:noescape
func PutPacketBuf(b []byte) {
	if cap(b) != packetBufCap {
		return
	}
	packetBufPool.Put((*[packetBufCap]byte)(b[:packetBufCap]))
}
