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
		got, n, err := parseFrame(nil, b, false)
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
	if _, _, err := parseFrame(nil, b[:2], false); err == nil {
		t.Fatal("truncated ACK accepted")
	}
	// First-range underflow: largest=5, first length=10.
	bad := []byte{byte(TypeAck), 0}
	bad = AppendVarint(bad, 5)  // largest
	bad = AppendVarint(bad, 0)  // delay
	bad = AppendVarint(bad, 0)  // extra ranges
	bad = AppendVarint(bad, 10) // first range len (underflows)
	if _, _, err := parseFrame(nil, bad, false); err == nil {
		t.Fatal("underflowing ACK accepted")
	}
}
