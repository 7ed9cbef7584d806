package wire

import (
	"math/bits"
	"reflect"
	"runtime"
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
	if got.LargestAcked() != 100 || got.LowestAcked() != 10 {
		t.Fatal("largest/lowest broken")
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
	for i := MaxAckRanges - 1; i >= 0; i-- {
		pn := PacketNumber(i * 3)
		f.Ranges = append([]AckRange{}, f.Ranges...)
		_ = pn
	}
	f.Ranges = f.Ranges[:0]
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

func TestBuildAckRanges(t *testing.T) {
	pns := []PacketNumber{1, 2, 3, 7, 8, 12, 3, 2} // dups included
	got := BuildAckRanges(pns)
	want := []AckRange{
		{Smallest: 12, Largest: 12},
		{Smallest: 7, Largest: 8},
		{Smallest: 1, Largest: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v want %+v", got, want)
	}
	if BuildAckRanges(nil) != nil {
		t.Fatal("empty input should give nil")
	}
}

func TestBuildAckRangesTruncatesToMax(t *testing.T) {
	var pns []PacketNumber
	for i := 0; i < 2*MaxAckRanges; i++ {
		pns = append(pns, PacketNumber(i*2)) // all isolated
	}
	got := BuildAckRanges(pns)
	if len(got) != MaxAckRanges {
		t.Fatalf("got %d ranges, want %d", len(got), MaxAckRanges)
	}
	// Truncation keeps the highest packet numbers.
	if got[0].Largest != PacketNumber((2*MaxAckRanges-1)*2) {
		t.Fatalf("lost the largest range: %+v", got[0])
	}
}

func TestAckFrameRoundTripProperty(t *testing.T) {
	f := func(seedPNs []uint16, delayUS uint16) bool {
		if len(seedPNs) == 0 {
			return true
		}
		pns := make([]PacketNumber, len(seedPNs))
		for i, v := range seedPNs {
			pns[i] = PacketNumber(v)
		}
		fr := &AckFrame{
			PathID:   2,
			Ranges:   BuildAckRanges(pns),
			AckDelay: time.Duration(delayUS) * time.Microsecond,
		}
		if fr.Validate() != nil {
			return false
		}
		b := fr.Append(nil)
		if len(b) != fr.EncodedSize() {
			return false
		}
		got, n, err := ParseFrame(b)
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
		got, _, err := parseFrame(&scratch, b, true)
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

func TestParseAckErrors(t *testing.T) {
	f := &AckFrame{Ranges: []AckRange{{Smallest: 5, Largest: 10}}}
	b := f.Append(nil)
	if _, _, err := ParseFrame(b[:2]); err == nil {
		t.Fatal("truncated ACK accepted")
	}
	// First-range underflow: largest=5, first length=10.
	bad := []byte{byte(TypeAck), 0}
	bad = AppendVarint(bad, 5)  // largest
	bad = AppendVarint(bad, 0)  // delay
	bad = AppendVarint(bad, 0)  // extra ranges
	bad = AppendVarint(bad, 10) // first range len (underflows)
	if _, _, err := ParseFrame(bad); err == nil {
		t.Fatal("underflowing ACK accepted")
	}
}
