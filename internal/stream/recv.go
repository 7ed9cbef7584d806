package stream

import (
	"fmt"
	"slices"
	"sync"

	"mpquic/internal/wire"
)

// ChunkSize is the unit of reassembly memory: a RecvStream stores the
// real-mode bytes it receives in chunks of this size, and a connection
// counts what its streams hold in them.
const ChunkSize = 16 << 10

type chunk [ChunkSize]byte

// chunkPool is where every stream's chunks come from and go back to:
// one chunk per ChunkSize of received bytes not yet read, whichever
// stream, connection or goroutine held it last.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// RecvStream reassembles STREAM frames arriving out of order — possibly
// over different paths — using the (offset, length) information that
// makes multipath reordering trivial for QUIC (§3, Reliable Data
// Transmission).
type RecvStream struct {
	id       wire.StreamID
	received IntervalSet
	// chunks[i] holds stream offsets [(first+i)·ChunkSize, +ChunkSize)
	// of real-mode bytes, or is nil while none of them has landed.
	// first·ChunkSize <= readOffset, so memory follows the bytes
	// received and not yet read, not the offsets a peer names; held
	// counts the chunks that are not nil.
	chunks     []*chunk
	first      uint64
	held       int
	readOffset uint64
	finOffset  uint64
	hasFin     bool
}

// NewRecvStream creates an empty receive stream.
func NewRecvStream(id wire.StreamID) *RecvStream {
	return &RecvStream{id: id}
}

// OnFrame ingests one STREAM frame. It returns the number of
// previously unseen bytes (for connection flow-control accounting) and
// an error on inconsistent FIN offsets.
func (r *RecvStream) OnFrame(f *wire.StreamFrame) (newBytes uint64, err error) {
	end := f.Offset + uint64(f.Len())
	if f.Fin {
		if r.hasFin && r.finOffset != end {
			return 0, fmt.Errorf("stream %d: conflicting FIN offsets %d and %d", r.id, r.finOffset, end)
		}
		r.hasFin = true
		r.finOffset = end
	}
	if r.hasFin && end > r.finOffset {
		return 0, fmt.Errorf("stream %d: data beyond FIN offset", r.id)
	}
	if f.Len() == 0 {
		return 0, nil
	}
	before := r.received.Size()
	r.received.Add(f.Offset, end)
	newBytes = r.received.Size() - before
	if f.Data != nil && end > r.readOffset {
		// Bytes below the read offset were read already; a late
		// duplicate straddling it contributes only its tail.
		from := max(f.Offset, r.readOffset)
		for data := f.Data[from-f.Offset:]; len(data) > 0; {
			n := copy(r.chunk(from/ChunkSize - r.first)[from%ChunkSize:], data)
			data, from = data[n:], from+uint64(n)
		}
	}
	return newBytes, nil
}

// chunk returns chunks[i], taking a zeroed chunk from the pool if no
// byte has landed there yet. chunks[len:cap] is all nil.
func (r *RecvStream) chunk(i uint64) *chunk {
	if i >= uint64(len(r.chunks)) {
		r.chunks = slices.Grow(r.chunks, int(i+1)-len(r.chunks))[:i+1]
	}
	if r.chunks[i] == nil {
		c := chunkPool.Get().(*chunk)
		clear(c[:]) // as a fresh one would be: no stream sees another's bytes
		r.chunks[i] = c
		r.held++
	}
	return r.chunks[i]
}

// Readable reports contiguous bytes available past the read offset.
func (r *RecvStream) Readable() uint64 {
	return r.received.FirstMissingFrom(r.readOffset) - r.readOffset
}

// Read consumes up to n contiguous bytes and returns how many were
// consumed plus the real-mode bytes (nil in synthetic mode). Where the
// stream holds real bytes, a Read ends at the end of the chunk it
// starts in: callers loop while Readable is not 0. data aliases that
// chunk and is valid until the next Read or Release: consume or copy
// it first.
func (r *RecvStream) Read(n uint64) (consumed uint64, data []byte) {
	n = min(n, r.Readable())
	if n == 0 {
		return 0, nil
	}
	r.drop()
	if len(r.chunks) > 0 && r.chunks[0] != nil {
		at := r.readOffset % ChunkSize
		n = min(n, ChunkSize-at)
		data = r.chunks[0][at : at+n]
	}
	r.readOffset += n
	return n, data
}

// drop hands back the chunks the read offset has passed. The Read that
// passes a chunk returns its last bytes, so the chunk goes back at the
// next Read, not in that one.
func (r *RecvStream) drop() {
	k := r.readOffset/ChunkSize - r.first
	if k == 0 {
		return
	}
	r.first += k
	k = min(k, uint64(len(r.chunks)))
	for _, c := range r.chunks[:k] {
		r.put(c)
	}
	n := copy(r.chunks, r.chunks[k:])
	clear(r.chunks[n:])
	r.chunks = r.chunks[:n]
}

func (r *RecvStream) put(c *chunk) {
	if c != nil {
		chunkPool.Put(c)
		r.held--
	}
}

// Release hands back every chunk the stream holds. The caller vouches
// that no slice Read returned is still in use. The stream still counts
// and accepts frames as before, and bytes whose chunk went back read as
// nil data.
func (r *RecvStream) Release() {
	for _, c := range r.chunks {
		r.put(c)
	}
	r.chunks = nil
}

// Chunks returns how many chunks the stream holds.
func (r *RecvStream) Chunks() int { return r.held }

// BytesReceived returns the total distinct bytes received so far.
func (r *RecvStream) BytesReceived() uint64 { return r.received.Size() }

// FinReceived reports whether a FIN has arrived (at any offset).
func (r *RecvStream) FinReceived() bool { return r.hasFin }

// Finished reports whether the application consumed the whole stream.
func (r *RecvStream) Finished() bool {
	return r.hasFin && r.readOffset == r.finOffset
}
