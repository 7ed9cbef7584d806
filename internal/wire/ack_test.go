package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestAckFrameSingleRangeRoundTrip(t *testing.T) {
	f := &AckFrame{
		PathID:   1,
		Ranges:   []AckRange{{Smallest: 0, Largest: 100}},
		AckDelay: 25 * time.Millisecond,
	}
	got := roundTrip(t, f).(*AckFrame)
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("got %+v want %+v", got, f)
	}
	if got.Retransmittable() {
		t.Fatal("ACK must not be retransmittable")
	}
}

func TestAckFrameMultiRangeRoundTrip(t *testing.T) {
	f := &AckFrame{
		PathID: 0,
		Ranges: []AckRange{
			{Smallest: 90, Largest: 100},
			{Smallest: 50, Largest: 70},
			{Smallest: 10, Largest: 10},
		},
	}
	got := roundTrip(t, f).(*AckFrame)
	if !reflect.DeepEqual(got.Ranges, f.Ranges) {
		t.Fatalf("got %+v", got.Ranges)
	}
	if got.LargestAcked() != 100 {
		t.Fatal("largest broken")
	}
}

func TestAckFrameAcks(t *testing.T) {
	f := &AckFrame{Ranges: []AckRange{
		{Smallest: 90, Largest: 100},
		{Smallest: 50, Largest: 70},
	}}
	for _, pn := range []PacketNumber{90, 95, 100, 50, 70} {
		if !f.Acks(pn) {
			t.Fatalf("should ack %d", pn)
		}
	}
	for _, pn := range []PacketNumber{0, 49, 71, 89, 101} {
		if f.Acks(pn) {
			t.Fatalf("should not ack %d", pn)
		}
	}
}

func TestAckFrame256Ranges(t *testing.T) {
	f := &AckFrame{}
	for i := MaxAckRanges; i >= 1; i-- {
		pn := PacketNumber(i * 3)
		f.Ranges = append(f.Ranges, AckRange{Smallest: pn, Largest: pn})
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, f).(*AckFrame)
	if len(got.Ranges) != MaxAckRanges {
		t.Fatalf("ranges %d", len(got.Ranges))
	}
	f.Ranges = append(f.Ranges, AckRange{Smallest: 0, Largest: 0})
	if err := f.Validate(); err == nil {
		t.Fatal("257 ranges validated")
	}
}

func TestAckValidateRejectsBadRanges(t *testing.T) {
	bad := []*AckFrame{
		{Ranges: nil},
		{Ranges: []AckRange{{Smallest: 5, Largest: 3}}},
		{Ranges: []AckRange{{Smallest: 5, Largest: 10}, {Smallest: 1, Largest: 4}}}, // touching
		{Ranges: []AckRange{{Smallest: 5, Largest: 10}, {Smallest: 1, Largest: 7}}}, // overlap
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Fatalf("case %d validated", i)
		}
	}
}

func TestAckFrameRoundTripProperty(t *testing.T) {
	f := func(seeds []uint16, delayUS uint16) bool {
		if len(seeds) == 0 {
			return true
		}
		// Each seed lays one range below the last: its high byte sizes
		// the gap (at least one PN), its low byte the range.
		var ranges []AckRange
		below := PacketNumber(1 << 24)
		for _, s := range seeds[:min(len(seeds), MaxAckRanges)] {
			largest := below - 2 - PacketNumber(s>>8)
			below = largest - PacketNumber(s&0xff)
			ranges = append(ranges, AckRange{Smallest: below, Largest: largest})
		}
		fr := &AckFrame{
			PathID:   2,
			Ranges:   ranges,
			AckDelay: time.Duration(delayUS) * time.Microsecond,
		}
		if fr.Validate() != nil {
			return false
		}
		b := fr.Append(nil)
		if len(b) != fr.EncodedSize() {
			return false
		}
		got, n, err := parseFrame(new(FrameArena), b)
		if err != nil || n != len(b) {
			return false
		}
		return reflect.DeepEqual(got, fr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestParseAckGrowsRangesByDoubling: a receiver's ACKs grow a range at a
// time after every new loss. Decoded into one FrameArena, ACKs of 1, 2,
// … MaxAckRanges ranges cost log2(MaxAckRanges)+1 allocations in all,
// not one per new range.
func TestParseAckGrowsRangesByDoubling(t *testing.T) {
	all := make([]AckRange, MaxAckRanges)
	for i := range all {
		pn := PacketNumber(3 * (MaxAckRanges - i))
		all[i] = AckRange{Smallest: pn, Largest: pn}
	}
	encoded := make([][]byte, MaxAckRanges)
	for n := 1; n <= MaxAckRanges; n++ {
		encoded[n-1] = (&AckFrame{Ranges: all[:n]}).Append(nil)
	}
	scratch := FrameArena{acks: make([]AckFrame, 1)} // the frame, not yet its ranges
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n, b := range encoded {
		scratch.reset()
		got, _, err := parseFrame(&scratch, b)
		if err != nil {
			t.Fatal(err)
		}
		if l := len(got.(*AckFrame).Ranges); l != n+1 {
			t.Fatalf("decoded %d ranges, want %d", l, n+1)
		}
	}
	runtime.ReadMemStats(&after)
	if allocs, budget := after.Mallocs-before.Mallocs, uint64(bits.Len(MaxAckRanges-1))+1; allocs > budget {
		t.Errorf("decoding ACKs of 1..%d ranges allocated %d times, budget %d", MaxAckRanges, allocs, budget)
	}
}

// appendAckRef and parseAckRef are the ACK codec before the pair fast
// path: every gap and length through the generic varint calls (and
// parseAckRef decodes them a byte at a time, with consumeVarintRef).
// The fast path must agree with them byte for byte, frame for frame
// and error for error.
func appendAckRef(f *AckFrame, b []byte) []byte {
	b = append(b, byte(TypeAck), byte(f.PathID))
	b = AppendVarint(b, uint64(f.LargestAcked()))
	b = AppendVarint(b, uint64(f.AckDelay/time.Microsecond))
	b = AppendVarint(b, uint64(len(f.Ranges)-1))
	b = AppendVarint(b, f.Ranges[0].Len()-1)
	for i := 1; i < len(f.Ranges); i++ {
		gap := uint64(f.Ranges[i-1].Smallest-f.Ranges[i].Largest) - 2
		b = AppendVarint(b, gap)
		b = AppendVarint(b, f.Ranges[i].Len()-1)
	}
	return b
}

func parseAckRef(f *AckFrame, b []byte) (int, error) {
	if len(b) < 2 {
		return 0, frameErr("ACK", ErrTruncated)
	}
	f.PathID = PathID(b[1])
	off := 2
	largest, n, err := consumeVarintRef(b[off:])
	if err != nil {
		return 0, frameErr("ACK", err)
	}
	off += n
	delayUS, n, err := consumeVarintRef(b[off:])
	if err != nil {
		return 0, frameErr("ACK", err)
	}
	off += n
	if delayUS > maxDurationUS {
		return 0, frameErr("ACK", errDurationRange)
	}
	f.AckDelay = time.Duration(delayUS) * time.Microsecond
	extra, n, err := consumeVarintRef(b[off:])
	if err != nil {
		return 0, frameErr("ACK", err)
	}
	off += n
	if extra >= MaxAckRanges {
		return 0, frameErr("ACK", errAckRangeCount)
	}
	firstLen, n, err := consumeVarintRef(b[off:])
	if err != nil {
		return 0, frameErr("ACK", err)
	}
	off += n
	if firstLen > largest {
		return 0, frameErr("ACK", errAckFirstUnderflow)
	}
	cur := AckRange{Smallest: PacketNumber(largest - firstLen), Largest: PacketNumber(largest)}
	f.Ranges = append(f.Ranges[:0], cur)
	for i := uint64(0); i < extra; i++ {
		gap, n, err := consumeVarintRef(b[off:])
		if err != nil {
			return 0, frameErr("ACK", err)
		}
		off += n
		length, n, err := consumeVarintRef(b[off:])
		if err != nil {
			return 0, frameErr("ACK", err)
		}
		off += n
		if uint64(cur.Smallest) < gap+2+length {
			return 0, frameErr("ACK", errAckRangeUnderflow)
		}
		largestNext := uint64(cur.Smallest) - gap - 2
		cur = AckRange{Smallest: PacketNumber(largestNext - length), Largest: PacketNumber(largestNext)}
		f.Ranges = append(f.Ranges, cur)
	}
	return off, nil
}

// checkAckAgainstRef decodes b with parseAckFrame and parseAckRef and
// fails unless both consume the same bytes into the same frame, or
// both fail with the same error.
func checkAckAgainstRef(t *testing.T, b []byte) {
	t.Helper()
	var got, want AckFrame
	n, err := parseAckFrame(&got, b)
	nRef, errRef := parseAckRef(&want, b)
	if (err == nil) != (errRef == nil) || err != nil && err.Error() != errRef.Error() {
		t.Fatalf("decoding %x: error %v, reference %v", b, err, errRef)
	}
	if err != nil {
		return
	}
	if n != nRef || !reflect.DeepEqual(got, want) {
		t.Fatalf("decoding %x: %d bytes %+v, reference %d bytes %+v", b, n, got, nRef, want)
	}
}

// checkAckCodec encodes f with Append and appendAckRef, fails unless the
// bytes agree and match EncodedSize, and decodes them with both parsers
// back to f.
func checkAckCodec(t *testing.T, f *AckFrame) {
	t.Helper()
	b, ref := f.Append(nil), appendAckRef(f, nil)
	if !bytes.Equal(b, ref) {
		t.Fatalf("encoding %+v: %x, reference %x", f.Ranges, b, ref)
	}
	if len(b) != f.EncodedSize() {
		t.Fatalf("encoding %+v: %d bytes, EncodedSize %d", f.Ranges, len(b), f.EncodedSize())
	}
	checkAckAgainstRef(t, b)
	var got AckFrame
	if n, err := parseAckFrame(&got, b); err != nil || n != len(b) || !reflect.DeepEqual(&got, f) {
		t.Fatalf("decoding %x: %d bytes %+v %v, want %+v", b, n, got, err, f)
	}
}

// ackWithPairs lays one range per (gap, length) pair below a first
// range of one packet at the top of the packet-number space.
func ackWithPairs(pairs [][2]uint64) *AckFrame {
	cur := AckRange{Smallest: 1 << 40, Largest: 1 << 40}
	f := &AckFrame{PathID: 3, Ranges: []AckRange{cur}, AckDelay: 250 * time.Microsecond}
	for _, p := range pairs {
		largest := cur.Smallest - 2 - PacketNumber(p[0])
		cur = AckRange{Smallest: largest - PacketNumber(p[1]), Largest: largest}
		f.Ranges = append(f.Ranges, cur)
	}
	return f
}

// TestAckFastPathMatchesReference: gaps and lengths on both sides of the
// one- and two-byte varint bounds, in every combination, so a pair whose
// first byte alone is small (or whose second alone is) is covered.
func TestAckFastPathMatchesReference(t *testing.T) {
	edges := []uint64{0, 62, 63, 64, 16383, 16384}
	var all [][2]uint64
	for _, gap := range edges {
		for _, length := range edges {
			p := [2]uint64{gap, length}
			all = append(all, p)
			checkAckCodec(t, ackWithPairs([][2]uint64{p}))
			// The pair between two one-byte pairs, and last.
			checkAckCodec(t, ackWithPairs([][2]uint64{{1, 2}, p, {3, 4}}))
			checkAckCodec(t, ackWithPairs([][2]uint64{{1, 2}, {3, 4}, p}))
		}
	}
	checkAckCodec(t, ackWithPairs(all))
}

// denseAck is a receiver's ACK after scattered losses: n ranges, the
// gaps and lengths one varint byte each, except the pair at wide (if
// any), whose length takes two bytes.
func denseAck(n, wide int) *AckFrame {
	pairs := make([][2]uint64, n-1)
	for i := range pairs {
		pairs[i] = [2]uint64{uint64(i % 3), uint64(i*7%20 + 1)}
	}
	if wide > 0 && wide < n {
		pairs[wide-1][1] = 300
	}
	return ackWithPairs(pairs)
}

// TestAckTruncationMatchesReference: a 91-range ACK (the mean on the
// wire-mode benchmark) cut at every byte fails, with the reference's
// error, and never decodes short.
func TestAckTruncationMatchesReference(t *testing.T) {
	for _, wide := range []int{0, 45} {
		f := denseAck(91, wide)
		checkAckCodec(t, f)
		b := f.Append(nil)
		for cut := 0; cut < len(b); cut++ {
			checkAckAgainstRef(t, b[:cut])
			var got AckFrame
			if _, err := parseAckFrame(&got, b[:cut]); !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut at %d of %d: %v, want ErrTruncated", cut, len(b), err)
			}
		}
	}
}

// FuzzAckFrameRoundTrip drives both codecs two ways: the input decoded
// as an ACK frame, and ranges laid from the input encoded. Each byte
// triple is one range: its first byte picks a shift of 0, 10, 20 or 30
// bits for the gap and for the length, so one-, two-, four- and
// eight-byte varints mix.
func FuzzAckFrameRoundTrip(f *testing.F) {
	f.Add(denseAck(91, 0).Append(nil))
	f.Add(denseAck(91, 45).Append(nil))
	f.Add([]byte{0x00, 1, 2, 0x05, 3, 4, 0x0f, 5, 6})
	f.Fuzz(func(t *testing.T, in []byte) {
		checkAckAgainstRef(t, in)
		cur := AckRange{Smallest: 1 << 61, Largest: 1 << 61}
		fr := &AckFrame{PathID: 1, Ranges: []AckRange{cur}}
		for i := 0; i+2 < len(in) && len(fr.Ranges) < MaxAckRanges; i += 3 {
			gap := uint64(in[i+1]) << (10 * (in[i] & 3))
			length := uint64(in[i+2]) << (10 * (in[i] >> 2 & 3))
			if uint64(cur.Smallest) < gap+2+length {
				break
			}
			largest := cur.Smallest - 2 - PacketNumber(gap)
			cur = AckRange{Smallest: largest - PacketNumber(length), Largest: largest}
			fr.Ranges = append(fr.Ranges, cur)
		}
		checkAckCodec(t, fr)
	})
}

// TestParseAckErrors: every way an ACK's ranges can be impossible is
// its own sentinel, wrapped like the frame's other errors.
func TestParseAckErrors(t *testing.T) {
	head := func(largest, extra, firstLen uint64) []byte {
		b := []byte{byte(TypeAck), 0}
		b = AppendVarint(b, largest)
		b = AppendVarint(b, 0) // delay
		b = AppendVarint(b, extra)
		return AppendVarint(b, firstLen)
	}
	cases := []struct {
		b    []byte
		want error
	}{
		{head(5, MaxAckRanges, 0), errAckRangeCount},
		{head(5, 0, 6), errAckFirstUnderflow},
		{append(head(10, 1, 0), 8, 1), errAckRangeUnderflow}, // [0, 0] would fit; [-1, 0] does not
		{append(head(10, 1, 0), 0x40, 9, 0), errAckRangeUnderflow},
		{head(5, 1, 0), ErrTruncated},
		{[]byte{byte(TypeAck), 0}, ErrTruncated},
	}
	for i, c := range cases {
		_, _, err := parseFrame(new(FrameArena), c.b)
		if !errors.Is(err, c.want) || !strings.HasPrefix(err.Error(), "wire: decoding ACK frame: ") {
			t.Errorf("case %d (%x): %v, want %v wrapped by frameErr", i, c.b, err, c.want)
		}
	}
}

// BenchmarkAckCodec encodes and decodes dense ACKs of one-byte pairs:
// 91 ranges is the mean MPQUIC ACK on sim_wire_crypto, 256 the cap.
//
//	go test -run '^$' -bench AckCodec -benchtime 200000x -count 5 ./internal/wire
func BenchmarkAckCodec(b *testing.B) {
	for _, n := range []int{1, 8, 91, 256} {
		f := denseAck(n, 0)
		enc := f.Append(nil)
		b.Run(fmt.Sprintf("encode/ranges=%d", n), func(b *testing.B) {
			buf := make([]byte, 0, len(enc))
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				buf = f.Append(buf[:0])
			}
		})
		b.Run(fmt.Sprintf("decode/ranges=%d", n), func(b *testing.B) {
			var got AckFrame
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if _, err := parseAckFrame(&got, enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
