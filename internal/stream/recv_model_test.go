package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mpquic/internal/wire"
)

// recvModel is the obvious RecvStream the chunked one must be
// indistinguishable from: the whole stream from offset 0 and one flag
// per byte.
type recvModel struct {
	data       []byte
	have       []bool
	received   uint64
	readOffset uint64
	finOffset  uint64
	hasFin     bool
}

func (m *recvModel) onFrame(f *wire.StreamFrame) (newBytes uint64, failed bool) {
	end := f.Offset + uint64(f.Len())
	if f.Fin {
		if m.hasFin && m.finOffset != end {
			return 0, true
		}
		m.hasFin, m.finOffset = true, end
	}
	if m.hasFin && end > m.finOffset {
		return 0, true
	}
	for uint64(len(m.data)) < end {
		m.data = append(m.data, 0)
		m.have = append(m.have, false)
	}
	for i := f.Offset; i < end; i++ {
		if !m.have[i] {
			m.have[i] = true
			newBytes++
		}
		m.data[i] = f.Data[i-f.Offset]
	}
	m.received += newBytes
	return newBytes, false
}

func (m *recvModel) readable() uint64 {
	n := m.readOffset
	for n < uint64(len(m.have)) && m.have[n] {
		n++
	}
	return n - m.readOffset
}

func (m *recvModel) covers(start, end uint64) bool {
	if uint64(len(m.have)) < end {
		return false
	}
	for _, v := range m.have[start:end] {
		if !v {
			return false
		}
	}
	return true
}

func (m *recvModel) complete() bool {
	return m.hasFin && m.covers(0, m.finOffset)
}

// recvOpsSource is the stream the op sequences below deliver: six
// chunks, so frames and reads straddle chunk boundaries many times
// over.
var recvOpsSource = func() []byte {
	b := make([]byte, 96<<10)
	rand.New(rand.NewSource(1)).Read(b)
	return b
}()

// runRecvOps interprets ops, four bytes each, as a hostile delivery of
// recvOpsSource — frames in any order, duplicated, partially
// overlapping, below the read offset (straddling it), with consistent
// and conflicting FINs, reads of any size in between — and checks
// RecvStream against recvModel after every step. It then delivers
// whatever is still missing and requires the bytes read to be the
// bytes written. It reports the first divergence.
func runRecvOps(ops []byte) error {
	src := recvOpsSource
	r := NewRecvStream(3)
	m := &recvModel{}
	var (
		got      []byte
		frontier uint64 // frames scatter around the highest offset sent
	)
	check := func(step string) error {
		if r.Readable() != m.readable() || r.BytesReceived() != m.received ||
			r.FinReceived() != m.hasFin || r.readOffset != m.readOffset ||
			complete(r) != m.complete() || r.Finished() != (m.hasFin && m.readOffset == m.finOffset) {
			return fmt.Errorf("%s: state diverged: readable %d/%d received %d/%d fin %v/%v read %d/%d complete %v/%v",
				step, r.Readable(), m.readable(), r.BytesReceived(), m.received, r.FinReceived(), m.hasFin,
				r.readOffset, m.readOffset, complete(r), m.complete())
		}
		// The chunks held lie between the read offset and the highest
		// offset received, plus the one a Read ending on a chunk
		// boundary has passed but not yet handed back.
		span := uint64(len(m.data)) - min(m.readOffset, uint64(len(m.data)))
		if limit := (span+ChunkSize-1)/ChunkSize + 1; uint64(r.Chunks()) > limit {
			return fmt.Errorf("%s: %d chunks held over an unread span of %d bytes, limit %d", step, r.Chunks(), span, limit)
		}
		return nil
	}
	frame := func(off, n uint64, fin bool) error {
		f := &wire.StreamFrame{StreamID: 3, Offset: off, Data: src[off : off+n], Fin: fin}
		step := fmt.Sprintf("frame [%d,%d) fin=%v", off, off+n, fin)
		wantNew, wantErr := m.onFrame(f)
		gotNew, err := r.OnFrame(f)
		if (err != nil) != wantErr || gotNew != wantNew {
			return fmt.Errorf("%s: new bytes %d err %v, model %d failed=%v", step, gotNew, err, wantNew, wantErr)
		}
		return check(step)
	}
	// read consumes n bytes, or all that is readable, one chunk-capped
	// Read at a time, as the applications do.
	read := func(n uint64) error {
		for n = min(n, m.readable()); n > 0; {
			want := min(n, ChunkSize-m.readOffset%ChunkSize)
			consumed, data := r.Read(n)
			if consumed != want || !bytes.Equal(data, m.data[m.readOffset:m.readOffset+want]) {
				return fmt.Errorf("read %d at %d: consumed %d (model %d, to the chunk's end) or wrong bytes", n, m.readOffset, consumed, want)
			}
			got = append(got, data...)
			m.readOffset += want
			n -= want
			if err := check(fmt.Sprintf("read %d", want)); err != nil {
				return err
			}
		}
		return nil
	}
	for ; len(ops) >= 4; ops = ops[4:] {
		kind, a, b, c := ops[0], uint64(ops[1]), uint64(ops[2]), uint64(ops[3])
		switch {
		case kind < 64: // read; 0 drains
			n := (a<<8 | b) % 9000
			if n == 0 {
				n = m.readable()
			}
			if err := read(n); err != nil {
				return err
			}
		default:
			// A frame of 1..1400 bytes somewhere within ±16 KiB of the
			// frontier — far enough back to land below the read offset.
			off := frontier + (a<<8|b)%(32<<10)
			off -= min(off, 16<<10)
			off = min(off, uint64(len(src))-1)
			n := min(1+(c*251+uint64(kind))%1400, uint64(len(src))-off)
			fin := off+n == uint64(len(src))
			if kind >= 250 {
				fin = !fin // a FIN short of the end, or a missing one
			}
			if err := frame(off, n, fin); err != nil {
				return err
			}
			if kind < 250 {
				frontier = max(frontier, off+n)
			}
		}
	}
	// Deliver the rest in order and drain — unless a FIN short of the
	// end stuck, in which case the stream cannot complete.
	if m.hasFin && m.finOffset != uint64(len(src)) {
		return nil
	}
	for off := uint64(0); off < uint64(len(src)); off += 1200 {
		n := min(1200, uint64(len(src))-off)
		if !m.covers(off, off+n) {
			if err := frame(off, n, off+n == uint64(len(src))); err != nil {
				return err
			}
		}
		if err := read(m.readable()); err != nil {
			return err
		}
	}
	if !r.Finished() || !bytes.Equal(got, src) {
		return fmt.Errorf("stream finished=%v, read %d of %d bytes, equal=%v", r.Finished(), len(got), len(src), bytes.Equal(got, src))
	}
	return nil
}

// recvOpsSeed is a fixed op sequence that straddles chunks, re-reads
// below the read offset and trips both FIN errors; it seeds the
// fuzzers.
func recvOpsSeed() []byte {
	ops := make([]byte, 4*4000)
	rand.New(rand.NewSource(14)).Read(ops)
	return ops
}

// TestRecvStreamMatchesModel: random deliveries with reads interleaved
// at random points — the chunked stream must read back exactly what was
// written, agree with the whole-stream model on every counter and FIN
// error, and never hold a chunk more than its unread span needs.
func TestRecvStreamMatchesModel(t *testing.T) {
	if err := runRecvOps(recvOpsSeed()); err != nil {
		t.Fatalf("seed sequence: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 60; i++ {
		ops := make([]byte, 4*(1+rng.Intn(6000)))
		rng.Read(ops)
		if i%3 == 0 {
			// A reader that rarely reads: the unread span grows large.
			for j := 0; j < len(ops); j += 4 {
				if ops[j] < 64 && rng.Intn(8) != 0 {
					ops[j] |= 64
				}
			}
		}
		if err := runRecvOps(ops); err != nil {
			t.Fatalf("sequence %d: %v", i, err)
		}
	}
}

// FuzzRecvStream lets the fuzzer write the delivery.
func FuzzRecvStream(f *testing.F) {
	f.Add(recvOpsSeed())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := runRecvOps(ops); err != nil {
			t.Fatal(err)
		}
	})
}
