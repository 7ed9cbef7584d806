package wire

import (
	"fmt"
	"sort"
	"time"
)

// MaxAckRanges caps the number of ranges one ACK frame can carry. The
// paper leans on this (256 ranges vs TCP's 2-3 SACK blocks) to explain
// QUIC's superior loss recovery (§4.1, low-BDP-losses).
const MaxAckRanges = 256

// AckRange is a closed interval [Smallest, Largest] of received packet
// numbers.
type AckRange struct {
	Smallest, Largest PacketNumber
}

// Len reports the number of packet numbers covered by the range.
func (r AckRange) Len() uint64 { return uint64(r.Largest-r.Smallest) + 1 }

// AckFrame acknowledges packets received on one path. The PathID field
// is the multipath extension: it lets acknowledgments for path i travel
// on any path (§3, Reliable Data Transmission).
type AckFrame struct {
	// PathID names the path whose packet-number space is acknowledged.
	// Only meaningful on multipath connections; 0 on single-path.
	PathID PathID
	// Ranges is sorted descending by Largest; Ranges[0].Largest is the
	// largest acknowledged packet number.
	Ranges []AckRange
	// AckDelay is the time between receiving the largest acknowledged
	// packet and sending this frame, letting the peer subtract
	// delayed-ack time from RTT samples (§2).
	AckDelay time.Duration
}

// LargestAcked returns the largest packet number the frame covers.
func (f *AckFrame) LargestAcked() PacketNumber {
	if len(f.Ranges) == 0 {
		return InvalidPacketNumber
	}
	return f.Ranges[0].Largest
}

// LowestAcked returns the smallest covered packet number.
func (f *AckFrame) LowestAcked() PacketNumber {
	if len(f.Ranges) == 0 {
		return InvalidPacketNumber
	}
	return f.Ranges[len(f.Ranges)-1].Smallest
}

// Acks reports whether pn is covered by the frame.
func (f *AckFrame) Acks(pn PacketNumber) bool {
	// Ranges are descending; binary search for the first range whose
	// Largest >= pn could be below.
	i := sort.Search(len(f.Ranges), func(i int) bool { return f.Ranges[i].Largest < pn })
	// Candidate is i-1? No: ranges with Largest >= pn are at indices < i.
	if i == 0 {
		return false
	}
	r := f.Ranges[i-1]
	return pn >= r.Smallest && pn <= r.Largest
}

// Validate checks range ordering invariants.
func (f *AckFrame) Validate() error {
	if len(f.Ranges) == 0 {
		return fmt.Errorf("wire: ACK frame with no ranges")
	}
	if len(f.Ranges) > MaxAckRanges {
		return fmt.Errorf("wire: ACK frame with %d ranges (max %d)", len(f.Ranges), MaxAckRanges)
	}
	for i, r := range f.Ranges {
		if r.Smallest > r.Largest {
			return fmt.Errorf("wire: ACK range %d inverted", i)
		}
		if i > 0 && r.Largest+1 >= f.Ranges[i-1].Smallest {
			return fmt.Errorf("wire: ACK ranges %d,%d overlap or touch", i-1, i)
		}
	}
	return nil
}

func (f *AckFrame) Type() FrameType       { return TypeAck }
func (f *AckFrame) Retransmittable() bool { return false }

func (f *AckFrame) EncodedSize() int {
	n := 1 + 1 // type + path id
	n += VarintLen(uint64(f.LargestAcked()))
	n += VarintLen(uint64(f.AckDelay / time.Microsecond))
	n += VarintLen(uint64(len(f.Ranges) - 1))
	n += VarintLen(f.Ranges[0].Len() - 1)
	for i := 1; i < len(f.Ranges); i++ {
		gap := uint64(f.Ranges[i-1].Smallest-f.Ranges[i].Largest) - 2
		n += VarintLen(gap) + VarintLen(f.Ranges[i].Len()-1)
	}
	return n
}

func (f *AckFrame) Append(b []byte) []byte {
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

// parseAckFrame decodes the ACK frame at the front of b into f,
// reusing the capacity of f.Ranges, and returns the bytes consumed.
func parseAckFrame(f *AckFrame, b []byte) (int, error) {
	if len(b) < 2 {
		return 0, frameErr("ACK", ErrTruncated)
	}
	f.PathID = PathID(b[1])
	off := 2
	largest, n, err := ConsumeVarint(b[off:])
	if err != nil {
		return 0, frameErr("ACK", err)
	}
	off += n
	delayUS, n, err := ConsumeVarint(b[off:])
	if err != nil {
		return 0, frameErr("ACK", err)
	}
	off += n
	if delayUS > maxDurationUS {
		return 0, frameErr("ACK", errDurationRange)
	}
	f.AckDelay = time.Duration(delayUS) * time.Microsecond
	extra, n, err := ConsumeVarint(b[off:])
	if err != nil {
		return 0, frameErr("ACK", err)
	}
	off += n
	if extra >= MaxAckRanges {
		return 0, fmt.Errorf("wire: ACK frame with %d ranges", extra+1)
	}
	firstLen, n, err := ConsumeVarint(b[off:])
	if err != nil {
		return 0, frameErr("ACK", err)
	}
	off += n
	if firstLen > largest {
		return 0, fmt.Errorf("wire: ACK first range underflows")
	}
	cur := AckRange{Smallest: PacketNumber(largest - firstLen), Largest: PacketNumber(largest)}
	if uint64(cap(f.Ranges)) <= extra {
		f.Ranges = make([]AckRange, 0, extra+1)
	}
	f.Ranges = append(f.Ranges[:0], cur)
	for i := uint64(0); i < extra; i++ {
		gap, n, err := ConsumeVarint(b[off:])
		if err != nil {
			return 0, frameErr("ACK", err)
		}
		off += n
		length, n, err := ConsumeVarint(b[off:])
		if err != nil {
			return 0, frameErr("ACK", err)
		}
		off += n
		if uint64(cur.Smallest) < gap+2+length {
			return 0, fmt.Errorf("wire: ACK range underflows")
		}
		largestNext := uint64(cur.Smallest) - gap - 2
		cur = AckRange{Smallest: PacketNumber(largestNext - length), Largest: PacketNumber(largestNext)}
		f.Ranges = append(f.Ranges, cur)
	}
	if err := f.Validate(); err != nil {
		return 0, err
	}
	return off, nil
}

// BuildAckRanges converts a set of received packet numbers (any order,
// duplicates allowed) into maximal descending ranges, truncated to the
// MaxAckRanges highest ranges, mirroring what a QUIC receiver tracks.
func BuildAckRanges(pns []PacketNumber) []AckRange {
	if len(pns) == 0 {
		return nil
	}
	sorted := make([]PacketNumber, len(pns))
	copy(sorted, pns)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	var ranges []AckRange
	cur := AckRange{Smallest: sorted[0], Largest: sorted[0]}
	for _, pn := range sorted[1:] {
		switch {
		case pn == cur.Smallest: // duplicate
		case pn == cur.Smallest-1:
			cur.Smallest = pn
		default:
			ranges = append(ranges, cur)
			if len(ranges) == MaxAckRanges {
				return ranges
			}
			cur = AckRange{Smallest: pn, Largest: pn}
		}
	}
	return append(ranges, cur)
}
