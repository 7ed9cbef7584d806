package wire

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// MaxAckRanges caps the number of ranges one ACK frame can carry. The
// paper leans on this (256 ranges vs TCP's 2-3 SACK blocks) to explain
// QUIC's superior loss recovery (§4.1, low-BDP-losses).
const MaxAckRanges = 256

// Errors of a decoded ACK frame whose ranges cannot be laid out.
var (
	errAckRangeCount     = errors.New("wire: more than 256 ranges")
	errAckFirstUnderflow = errors.New("wire: first range reaches below packet number 0")
	errAckRangeUnderflow = errors.New("wire: range reaches below packet number 0")
)

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

// Acks reports whether pn is covered by the frame.
func (f *AckFrame) Acks(pn PacketNumber) bool {
	// Ranges descend, so those with Largest >= pn are exactly the
	// indices below i, and only the last of them, i-1, can hold pn.
	i := sort.Search(len(f.Ranges), func(i int) bool { return f.Ranges[i].Largest < pn })
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

func (f *AckFrame) Retransmittable() bool { return false }

func (f *AckFrame) EncodedSize() int {
	rest := 0
	for i := 1; i < len(f.Ranges); i++ {
		rest += AckRangeSize(f.Ranges[i-1], f.Ranges[i])
	}
	return f.EncodedSizeWith(rest)
}

// EncodedSizeWith is EncodedSize for a caller that already knows rest,
// the sum of AckRangeSize over every range after the first.
func (f *AckFrame) EncodedSizeWith(rest int) int {
	return 1 + 1 + // type + path id
		VarintLen(uint64(f.LargestAcked())) +
		VarintLen(uint64(f.AckDelay/time.Microsecond)) +
		VarintLen(uint64(len(f.Ranges)-1)) +
		VarintLen(f.Ranges[0].Len()-1) + rest
}

// AckRangeSize is the encoded size of range r following range prev in
// an ACK frame: the gap below prev and r's length, as varints.
func AckRangeSize(prev, r AckRange) int {
	return VarintLen(uint64(prev.Smallest-r.Largest)-2) + VarintLen(r.Len()-1)
}

func (f *AckFrame) Append(b []byte) []byte {
	b = append(b, byte(TypeAck), byte(f.PathID))
	b = AppendVarint(b, uint64(f.LargestAcked()))
	b = AppendVarint(b, uint64(f.AckDelay/time.Microsecond))
	b = AppendVarint(b, uint64(len(f.Ranges)-1))
	b = AppendVarint(b, f.Ranges[0].Len()-1)
	prev := f.Ranges[0]
	for _, r := range f.Ranges[1:] {
		gap, length := uint64(prev.Smallest-r.Largest)-2, r.Len()-1
		prev = r
		if gap|length <= maxVarint1 {
			// Both fit one varint byte, whose encoding is the value.
			b = append(b, byte(gap), byte(length))
			continue
		}
		b = AppendVarint(b, gap)
		b = AppendVarint(b, length)
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
		return 0, frameErr("ACK", errAckRangeCount)
	}
	firstLen, n, err := ConsumeVarint(b[off:])
	if err != nil {
		return 0, frameErr("ACK", err)
	}
	off += n
	if firstLen > largest {
		return 0, frameErr("ACK", errAckFirstUnderflow)
	}
	cur := AckRange{Smallest: PacketNumber(largest - firstLen), Largest: PacketNumber(largest)}
	if c := uint64(cap(f.Ranges)); c <= extra {
		// Double, so that ACKs growing a range at a time (a receiver's
		// after every new loss) allocate log2(MaxAckRanges) times, not
		// MaxAckRanges times.
		f.Ranges = make([]AckRange, 0, min(max(2*c, extra+1), MaxAckRanges))
	}
	ranges := f.Ranges[:extra+1]
	ranges[0] = cur
	for i := 1; i < len(ranges); i++ {
		var gap, length uint64
		if off+1 < len(b) && b[off]|b[off+1] < 0x40 {
			// Both varints are one byte (a zero length prefix), as
			// nearly every pair of a dense ACK is.
			gap, length = uint64(b[off]), uint64(b[off+1])
			off += 2
		} else {
			gap, n, err = ConsumeVarint(b[off:])
			if err != nil {
				return 0, frameErr("ACK", err)
			}
			off += n
			length, n, err = ConsumeVarint(b[off:])
			if err != nil {
				return 0, frameErr("ACK", err)
			}
			off += n
		}
		if uint64(cur.Smallest) < gap+2+length {
			return 0, frameErr("ACK", errAckRangeUnderflow)
		}
		largestNext := uint64(cur.Smallest) - gap - 2
		cur = AckRange{Smallest: PacketNumber(largestNext - length), Largest: PacketNumber(largestNext)}
		ranges[i] = cur
	}
	f.Ranges = ranges
	// The loop has established everything Validate checks: each next
	// Largest is cur.Smallest-gap-2, so the ranges descend strictly and
	// never touch; the underflow checks keep Smallest <= Largest; and
	// extra < MaxAckRanges caps the count. FuzzDecode asserts that every
	// frame accepted here passes Validate.
	return off, nil
}
