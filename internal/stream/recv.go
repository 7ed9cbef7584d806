package stream

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"mpquic/internal/wire"
)

// RecvStream reassembles STREAM frames arriving out of order — possibly
// over different paths — using the (offset, length) information that
// makes multipath reordering trivial for QUIC (§3, Reliable Data
// Transmission).
type RecvStream struct {
	id       wire.StreamID
	received IntervalSet
	// buf is a sliding window over the real-mode bytes: buf[i] is
	// stream offset base+i, with base <= readOffset, so memory is
	// bounded by the span between the read offset and the highest
	// offset received (at most the flow-control window), not by the
	// length of the stream. nil until real data arrives.
	buf        []byte
	base       uint64
	readOffset uint64
	finOffset  uint64
	hasFin     bool
}

// NewRecvStream creates an empty receive stream.
func NewRecvStream(id wire.StreamID) *RecvStream {
	return &RecvStream{id: id}
}

// ID returns the stream ID.
func (r *RecvStream) ID() wire.StreamID { return r.id }

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
		r.reserve(end)
		// Bytes below base were read already; a late duplicate
		// straddling base contributes only its tail.
		from := f.Offset
		if from < r.base {
			from = r.base
		}
		copy(r.buf[from-r.base:end-r.base], f.Data[from-f.Offset:])
	}
	return newBytes, nil
}

// minRecvBuf is the smallest reassembly buffer allocated.
const minRecvBuf = 16 << 10

// windowPools recycles reassembly windows: class k holds buffers of
// capacity minRecvBuf<<k, the capacities reserve grows to. A window that
// is outgrown is dead the moment its bytes are copied out — Read's
// slices are valid only until the next OnFrame, and growing happens
// inside one — so it goes back at once and the next stream climbing the
// same ladder, on this connection or a later one, takes it instead of
// allocating. (A stream's last window is never known to be dead and is
// left to the collector.)
var windowPools [11]sync.Pool // 16 KiB to 16 MiB, the default flow-control window

// windowClass returns the smallest class whose capacity is at least n.
func windowClass(n uint64) int {
	if n <= minRecvBuf {
		return 0
	}
	return bits.Len64((n - 1) / minRecvBuf)
}

// getWindow returns a zeroed buffer of length n from the smallest class
// that holds it: the capacity is at least n and less than 2n. When that
// is more than limit, the rest of a stream whose length is known, or
// when n is beyond the largest class, the buffer comes from no class and
// has capacity 2n or limit, whichever is less.
func getWindow(n, limit uint64) []byte {
	k := windowClass(n)
	if k >= len(windowPools) || minRecvBuf<<k > limit {
		return make([]byte, n, min(2*n, limit))
	}
	if p, ok := windowPools[k].Get().(*[]byte); ok {
		b := (*p)[:minRecvBuf<<k]
		clear(b) // as a fresh one would be: no stream sees another's bytes
		return b[:n]
	}
	return make([]byte, n, minRecvBuf<<k)
}

// putWindow recycles an outgrown window, unless it came from no class.
func putWindow(b []byte) {
	if k := windowClass(uint64(cap(b))); k < len(windowPools) && cap(b) == minRecvBuf<<k {
		windowPools[k].Put(&b)
	}
}

// reserve makes buf cover stream offsets up to end. When the frame does
// not fit, the unread bytes first slide to the front of the buffer;
// only when the unread span itself (read offset to end) exceeds the
// capacity does the buffer grow — to the pooled window class that holds
// that span, less than twice it and never past the stream length once
// the FIN is known — and the window it outgrew is recycled.
func (r *RecvStream) reserve(end uint64) {
	if end-r.base <= uint64(cap(r.buf)) {
		if end-r.base > uint64(len(r.buf)) {
			r.buf = r.buf[:end-r.base]
		}
		return
	}
	// Drop the consumed prefix.
	unread := r.buf[min(r.readOffset-r.base, uint64(len(r.buf))):]
	r.base = r.readOffset
	need := end - r.base
	if need <= uint64(cap(r.buf)) {
		n := copy(r.buf[:cap(r.buf)], unread)
		r.buf = r.buf[:max(uint64(n), need)]
		return
	}
	limit := uint64(math.MaxUint64)
	if r.hasFin {
		limit = r.finOffset - r.base
	}
	grown := getWindow(need, limit)
	copy(grown, unread)
	putWindow(r.buf)
	r.buf = grown
}

// Readable reports contiguous bytes available past the read offset.
func (r *RecvStream) Readable() uint64 {
	return r.received.FirstMissingFrom(r.readOffset) - r.readOffset
}

// Read consumes up to n contiguous bytes and returns how many were
// consumed plus the real-mode bytes (nil in synthetic mode). data
// aliases the reassembly window and is valid until the next OnFrame,
// which may slide or replace it: consume or copy it first.
func (r *RecvStream) Read(n uint64) (consumed uint64, data []byte) {
	avail := r.Readable()
	if n > avail {
		n = avail
	}
	if n == 0 {
		return 0, nil
	}
	if at := r.readOffset - r.base; r.buf != nil && uint64(len(r.buf)) >= at+n {
		data = r.buf[at : at+n]
	}
	r.readOffset += n
	return n, data
}

// ReadOffset returns the application's consumption frontier.
func (r *RecvStream) ReadOffset() uint64 { return r.readOffset }

// BytesReceived returns the total distinct bytes received so far.
func (r *RecvStream) BytesReceived() uint64 { return r.received.Size() }

// FinReceived reports whether a FIN has arrived (at any offset).
func (r *RecvStream) FinReceived() bool { return r.hasFin }

// FinOffset returns the stream length once FIN was seen.
func (r *RecvStream) FinOffset() (uint64, bool) { return r.finOffset, r.hasFin }

// Finished reports whether the application consumed the whole stream.
func (r *RecvStream) Finished() bool {
	return r.hasFin && r.readOffset == r.finOffset
}

// Complete reports whether all bytes up to FIN have *arrived*
// (regardless of application consumption).
func (r *RecvStream) Complete() bool {
	if !r.hasFin {
		return false
	}
	if r.finOffset == 0 {
		return true
	}
	return r.received.Contains(0, r.finOffset)
}
