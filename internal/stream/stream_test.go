package stream

import (
	"bytes"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"mpquic/internal/wire"
)

// complete reports whether every byte up to the FIN has arrived.
func complete(r *RecvStream) bool {
	return r.hasFin && (r.finOffset == 0 || r.received.Contains(0, r.finOffset))
}

// allAcked reports whether every written byte and the FIN are acked.
func allAcked(s *SendStream) bool {
	return s.fin && s.finAcked && (s.writeOffset == 0 || s.acked.Contains(0, s.writeOffset))
}

func TestIntervalSetAddCoalesces(t *testing.T) {
	var s IntervalSet
	s.Add(10, 20)
	s.Add(30, 40)
	s.Add(20, 30) // bridges
	ivs := s.Intervals()
	if len(ivs) != 1 || ivs[0] != (Interval{10, 40}) {
		t.Fatalf("got %v", ivs)
	}
	if s.Size() != 30 {
		t.Fatalf("size %d", s.Size())
	}
}

func TestIntervalSetAddOverlap(t *testing.T) {
	var s IntervalSet
	s.Add(0, 100)
	s.Add(50, 150)
	s.Add(25, 75)
	if got := s.Intervals(); len(got) != 1 || got[0] != (Interval{0, 150}) {
		t.Fatalf("got %v", got)
	}
}

func TestIntervalSetRemoveSplits(t *testing.T) {
	var s IntervalSet
	s.Add(0, 100)
	s.Remove(40, 60)
	got := s.Intervals()
	if len(got) != 2 || got[0] != (Interval{0, 40}) || got[1] != (Interval{60, 100}) {
		t.Fatalf("got %v", got)
	}
	s.Remove(0, 100)
	if !s.Empty() {
		t.Fatalf("not empty: %v", s.Intervals())
	}
}

func TestIntervalSetContains(t *testing.T) {
	var s IntervalSet
	s.Add(10, 20)
	s.Add(30, 40)
	if !s.Contains(10, 20) || !s.Contains(12, 18) || !s.Contains(5, 5) {
		t.Fatal("contains broken")
	}
	if s.Contains(10, 25) || s.Contains(25, 28) || s.Contains(15, 35) {
		t.Fatal("contains false positive")
	}
}

func TestIntervalSetFirstMissingFrom(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	s.Add(20, 30)
	if got := s.FirstMissingFrom(0); got != 10 {
		t.Fatalf("got %d", got)
	}
	if got := s.FirstMissingFrom(15); got != 15 {
		t.Fatalf("got %d", got)
	}
	if got := s.FirstMissingFrom(25); got != 30 {
		t.Fatalf("got %d", got)
	}
}

func TestIntervalSetPop(t *testing.T) {
	var s IntervalSet
	s.Add(5, 15)
	iv := s.Pop(4)
	if iv != (Interval{5, 9}) {
		t.Fatalf("got %v", iv)
	}
	iv = s.Pop(100)
	if iv != (Interval{9, 15}) {
		t.Fatalf("got %v", iv)
	}
	if !s.Empty() {
		t.Fatal("not drained")
	}
	if s.Pop(10).Len() != 0 {
		t.Fatal("pop from empty returned bytes")
	}
}

// Property: an IntervalSet built from random Adds equals the reference
// boolean-array implementation.
func TestIntervalSetMatchesReferenceProperty(t *testing.T) {
	f := func(ops [][2]uint8) bool {
		var s IntervalSet
		ref := make([]bool, 300)
		for _, op := range ops {
			a, b := uint64(op[0]), uint64(op[0])+uint64(op[1]%40)
			s.Add(a, b)
			for i := a; i < b && i < 300; i++ {
				ref[i] = true
			}
		}
		// Compare sizes and membership.
		var want uint64
		for _, v := range ref {
			if v {
				want++
			}
		}
		if s.Size() != want {
			return false
		}
		for i := 0; i < 299; i++ {
			if ref[i] != s.Contains(uint64(i), uint64(i+1)) {
				return false
			}
		}
		// Invariant: sorted, non-overlapping, non-touching.
		ivs := s.Intervals()
		if !sort.SliceIsSorted(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start }) {
			return false
		}
		for i := 1; i < len(ivs); i++ {
			if ivs[i].Start <= ivs[i-1].End {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: AddMissing adds to a set exactly what the construction it
// replaced did — a temporary set of [start, end) with every interval of
// have removed, then added interval by interval.
func TestIntervalSetAddMissingMatchesRemoveConstruction(t *testing.T) {
	build := func(ops [][2]uint8) *IntervalSet {
		s := new(IntervalSet)
		for _, op := range ops {
			s.Add(uint64(op[0]), uint64(op[0])+uint64(op[1]%40))
		}
		return s
	}
	f := func(haveOps, intoOps [][2]uint8, start, n uint8) bool {
		have, got, want := build(haveOps), build(intoOps), build(intoOps)
		lo, hi := uint64(start), uint64(start)+uint64(n)
		got.AddMissing(lo, hi, have)
		var missing IntervalSet
		missing.Add(lo, hi)
		for _, iv := range have.Intervals() {
			missing.Remove(iv.Start, iv.End)
		}
		for _, iv := range missing.Intervals() {
			want.Add(iv.Start, iv.End)
		}
		return slices.Equal(got.Intervals(), want.Intervals())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFlowControllerSendSide(t *testing.T) {
	fc := NewFlowController(1000)
	if fc.SendAllowance() != 1000 {
		t.Fatalf("allowance %d", fc.SendAllowance())
	}
	fc.AddBytesSent(600)
	if fc.SendAllowance() != 400 {
		t.Fatal("partial consumption wrong")
	}
	fc.AddBytesSent(400)
	if fc.SendAllowance() != 0 {
		t.Fatal("should be blocked")
	}
	if fc.UpdateSendLimit(900) {
		t.Fatal("stale update accepted")
	}
	if !fc.UpdateSendLimit(2000) || fc.SendAllowance() != 1000 {
		t.Fatal("update failed")
	}
}

func TestFlowControllerRecvSide(t *testing.T) {
	fc := NewFlowController(1000)
	if !fc.OnReceive(1000) {
		t.Fatal("in-limit receive rejected")
	}
	if fc.OnReceive(1001) {
		t.Fatal("violation not detected")
	}
	if fc.ShouldSendUpdate() {
		t.Fatal("no consumption yet")
	}
	fc.OnConsume(600)
	if !fc.ShouldSendUpdate() {
		t.Fatal("should update after consuming >= half window")
	}
	limit := fc.NextUpdate()
	if limit != 1600 {
		t.Fatalf("limit %d", limit)
	}
	if fc.ShouldSendUpdate() {
		t.Fatal("update already granted")
	}
}

func TestSendStreamRealDataRoundTrip(t *testing.T) {
	s := NewSendStream(3)
	s.Write([]byte("hello, "))
	s.Write([]byte("world"))
	s.Close()
	var frames []*wire.StreamFrame
	for {
		f, _ := s.NextFrame(20, 1<<20)
		if f == nil {
			break
		}
		frames = append(frames, f)
	}
	var buf bytes.Buffer
	fin := false
	for _, f := range frames {
		buf.Write(f.Data)
		fin = fin || f.Fin
	}
	if buf.String() != "hello, world" || !fin {
		t.Fatalf("got %q fin=%v", buf.String(), fin)
	}
}

func TestSendStreamFlowAllowanceLimitsNewData(t *testing.T) {
	s := NewSendStream(3)
	s.WriteSynthetic(1000)
	f, used := s.NextFrame(2000, 100)
	if f == nil || f.Len() != 100 || used != 100 {
		t.Fatalf("frame %+v used %d", f, used)
	}
	if f2, used2 := s.NextFrame(2000, 0); f2 != nil || used2 != 0 {
		t.Fatal("produced new data with zero allowance")
	}
}

func TestSendStreamRetransmissionPriorityAndNoDoubleCharge(t *testing.T) {
	s := NewSendStream(3)
	s.WriteSynthetic(3000)
	f1, _ := s.NextFrame(1400, 1<<20) // ~1350ish bytes
	s.OnFrameLost(f1.Offset, f1.Len(), f1.Fin)
	f2, used := s.NextFrame(1400, 1<<20)
	if used != 0 {
		t.Fatal("retransmission consumed flow credit")
	}
	if f2.Offset != f1.Offset || f2.Len() != f1.Len() {
		t.Fatalf("rtx frame %+v != original %+v", f2, f1)
	}
}

func TestSendStreamLostThenAckedNotRetransmitted(t *testing.T) {
	s := NewSendStream(3)
	s.WriteSynthetic(1000)
	f, _ := s.NextFrame(2000, 1<<20)
	// Duplicate copies: one lost, one acked (e.g. duplicated on a
	// second path). The ack wins.
	s.OnFrameAcked(f.Offset, f.Len(), f.Fin)
	s.OnFrameLost(f.Offset, f.Len(), f.Fin)
	if s.HasRetransmission() {
		t.Fatal("acked data queued for retransmission")
	}
}

func TestSendStreamFinLifecycle(t *testing.T) {
	s := NewSendStream(3)
	s.WriteSynthetic(100)
	s.Close()
	f, _ := s.NextFrame(2000, 1<<20)
	if !f.Fin {
		t.Fatal("last frame should carry FIN")
	}
	if allAcked(s) {
		t.Fatal("AllAcked before any ack")
	}
	s.OnFrameLost(f.Offset, f.Len(), f.Fin)
	f2, _ := s.NextFrame(2000, 1<<20)
	if f2 == nil || !f2.Fin {
		t.Fatalf("lost FIN not retransmitted: %+v", f2)
	}
	s.OnFrameAcked(f2.Offset, f2.Len(), f2.Fin)
	if !allAcked(s) {
		t.Fatal("AllAcked false after full ack")
	}
}

func TestSendStreamEmptyFin(t *testing.T) {
	s := NewSendStream(3)
	s.Close()
	f, _ := s.NextFrame(2000, 0) // zero allowance must not block bare FIN
	if f == nil || !f.Fin || f.Len() != 0 {
		t.Fatalf("bare FIN: %+v", f)
	}
	s.OnFrameAcked(f.Offset, 0, true)
	if !allAcked(s) {
		t.Fatal("empty stream not complete")
	}
}

func TestRecvStreamReordering(t *testing.T) {
	r := NewRecvStream(3)
	newB, err := r.OnFrame(&wire.StreamFrame{StreamID: 3, Offset: 5, Data: []byte("world")})
	if err != nil || newB != 5 {
		t.Fatalf("newB %d err %v", newB, err)
	}
	if r.Readable() != 0 {
		t.Fatal("gap should block reading")
	}
	newB, _ = r.OnFrame(&wire.StreamFrame{StreamID: 3, Offset: 0, Data: []byte("hello")})
	if newB != 5 {
		t.Fatalf("newB %d", newB)
	}
	if r.Readable() != 10 {
		t.Fatalf("readable %d", r.Readable())
	}
	n, data := r.Read(10)
	if n != 10 || string(data) != "helloworld" {
		t.Fatalf("read %d %q", n, data)
	}
}

func TestRecvStreamDuplicateCountsOnce(t *testing.T) {
	r := NewRecvStream(3)
	f := &wire.StreamFrame{StreamID: 3, Offset: 0, DataLen: 100}
	n1, _ := r.OnFrame(f)
	n2, _ := r.OnFrame(f)
	if n1 != 100 || n2 != 0 {
		t.Fatalf("dup accounting: %d, %d", n1, n2)
	}
	if r.BytesReceived() != 100 {
		t.Fatalf("received %d", r.BytesReceived())
	}
}

func TestRecvStreamFinHandling(t *testing.T) {
	r := NewRecvStream(3)
	r.OnFrame(&wire.StreamFrame{StreamID: 3, Offset: 0, DataLen: 50})
	r.OnFrame(&wire.StreamFrame{StreamID: 3, Offset: 50, DataLen: 50, Fin: true})
	if !r.FinReceived() || !complete(r) {
		t.Fatal("fin/complete broken")
	}
	if !r.hasFin || r.finOffset != 100 {
		t.Fatalf("fin offset %d", r.finOffset)
	}
	r.Read(100)
	if !r.Finished() {
		t.Fatal("not finished after full read")
	}
}

// A chunk goes back to the pool once the read offset has passed it, and
// Release hands back the rest; a released stream still answers reads
// and late duplicates, and the next stream takes the chunks back.
func TestRecvStreamReleaseReturnsChunks(t *testing.T) {
	const size = 2*ChunkSize + ChunkSize/2
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i%251 + 1) // never 0, as a cleared chunk is
	}
	r := NewRecvStream(3)
	r.OnFrame(&wire.StreamFrame{StreamID: 3, Offset: size / 2, Data: data[size/2:], Fin: true})
	r.OnFrame(&wire.StreamFrame{StreamID: 3, Offset: 0, Data: data[:size/2]})
	if r.Chunks() != 3 {
		t.Fatalf("%d chunks held for %d bytes, want 3", r.Chunks(), size)
	}
	var got []byte
	for r.Readable() > 0 {
		_, b := r.Read(size)
		got = append(got, b...)
		// The chunk a Read ends in stays; the ones before it went back.
		if want := 3 - int((r.readOffset-1)/ChunkSize); r.Chunks() != want {
			t.Fatalf("at offset %d: %d chunks held, want %d", r.readOffset, r.Chunks(), want)
		}
	}
	if !r.Finished() || !bytes.Equal(got, data) {
		t.Fatalf("finished %v, read back %d of %d bytes intact: %v", r.Finished(), len(got), size, bytes.Equal(got, data))
	}
	last := r.chunks[0]
	r.Release()
	if r.Chunks() != 0 || r.chunks != nil {
		t.Fatalf("Release left %d chunks", r.Chunks())
	}
	if n, err := r.OnFrame(&wire.StreamFrame{StreamID: 3, Offset: 0, Data: data[:100]}); err != nil || n != 0 || r.Chunks() != 0 || r.Readable() != 0 {
		t.Fatalf("late duplicate after Release: new %d, err %v, chunks %d, readable %d", n, err, r.Chunks(), r.Readable())
	}
	// The next stream takes the released chunk, cleared: sync.Pool hands
	// out what was put last first. Under the race detector it drops a
	// quarter of what is put back, so a few tries may be needed.
	for try := 0; ; try++ {
		next := NewRecvStream(5)
		next.OnFrame(&wire.StreamFrame{StreamID: 5, Offset: 1, Data: data[:1]})
		if c := next.chunks[0]; c[0] != 0 || c[ChunkSize-1] != 0 {
			t.Fatal("a chunk from the pool carries another stream's bytes")
		}
		if next.chunks[0] == last {
			break
		}
		if try == 20 {
			t.Fatal("no released chunk came back from the pool")
		}
		last = next.chunks[0]
		next.Release()
	}
}

func TestRecvStreamFinConflicts(t *testing.T) {
	r := NewRecvStream(3)
	r.OnFrame(&wire.StreamFrame{StreamID: 3, Offset: 10, Fin: true})
	if _, err := r.OnFrame(&wire.StreamFrame{StreamID: 3, Offset: 20, Fin: true}); err == nil {
		t.Fatal("conflicting FIN accepted")
	}
	if _, err := r.OnFrame(&wire.StreamFrame{StreamID: 3, Offset: 15, DataLen: 10}); err == nil {
		t.Fatal("data past FIN accepted")
	}
}

func TestRecvStreamCompleteOutOfOrderFin(t *testing.T) {
	r := NewRecvStream(3)
	r.OnFrame(&wire.StreamFrame{StreamID: 3, Offset: 50, DataLen: 50, Fin: true})
	if complete(r) {
		t.Fatal("complete with a hole")
	}
	r.OnFrame(&wire.StreamFrame{StreamID: 3, Offset: 0, DataLen: 50})
	if !complete(r) {
		t.Fatal("should be complete")
	}
}

// Property: any segmentation of a synthetic stream, delivered in any
// order with duplications, reassembles completely with exact byte
// accounting.
func TestStreamReassemblyProperty(t *testing.T) {
	f := func(chunks []uint16, perm []uint8, dup uint8) bool {
		s := NewSendStream(7)
		total := uint64(0)
		for _, c := range chunks {
			n := uint64(c%2000) + 1
			total += n
		}
		if total == 0 {
			return true
		}
		s.WriteSynthetic(total)
		s.Close()
		var frames []*wire.StreamFrame
		for {
			fr, _ := s.NextFrame(1400, 1<<30)
			if fr == nil {
				break
			}
			frames = append(frames, fr)
		}
		// Shuffle deterministically with perm and duplicate one frame.
		for i := range frames {
			j := i
			if len(perm) > 0 {
				j = int(perm[i%len(perm)]) % len(frames)
			}
			frames[i], frames[j] = frames[j], frames[i]
		}
		if len(frames) > 0 {
			frames = append(frames, frames[int(dup)%len(frames)])
		}
		r := NewRecvStream(7)
		var newBytes uint64
		for _, fr := range frames {
			n, err := r.OnFrame(fr)
			if err != nil {
				return false
			}
			newBytes += n
		}
		return newBytes == total && complete(r) && r.Readable() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessorsAndGuards(t *testing.T) {
	s := NewSendStream(9)
	if s.id != 9 {
		t.Fatal("send ID")
	}
	r := NewRecvStream(9)
	if r.id != 9 {
		t.Fatal("recv ID")
	}
	r.OnFrame(&wire.StreamFrame{StreamID: 9, DataLen: 10})
	r.Read(4)
	if r.readOffset != 4 {
		t.Fatalf("read offset %d", r.readOffset)
	}
	fc := NewFlowController(100)
	fc.AddBytesSent(30)
	if fc.sendLimit != 100 || fc.sent != 30 || fc.RecvLimit() != 100 {
		t.Fatal("flow accessors")
	}
	var set IntervalSet
	set.Add(1, 3)
	if set.String() == "" {
		t.Fatal("interval String")
	}
}

func TestWriteGuards(t *testing.T) {
	s := NewSendStream(1)
	s.Write([]byte("x"))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("mixing real+synthetic accepted")
			}
		}()
		s.WriteSynthetic(5)
	}()
	s.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Write after Close accepted")
			}
		}()
		s.Write([]byte("y"))
	}()

	syn := NewSendStream(2)
	syn.WriteSynthetic(5)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("mixing synthetic+real accepted")
			}
		}()
		syn.Write([]byte("z"))
	}()
	syn.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("WriteSynthetic after Close accepted")
			}
		}()
		syn.WriteSynthetic(1)
	}()
}

func TestRecvCompleteEmptyStream(t *testing.T) {
	r := NewRecvStream(4)
	if complete(r) {
		t.Fatal("complete before FIN")
	}
	r.OnFrame(&wire.StreamFrame{StreamID: 4, Fin: true})
	if !complete(r) || !r.FinReceived() {
		t.Fatal("empty stream with FIN should be complete")
	}
}
