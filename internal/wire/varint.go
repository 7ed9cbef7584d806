// Package wire implements the (Multipath) QUIC wire format used by this
// reproduction: variable-length integers, the public packet header with
// the multipath Path ID of §3 of the paper, and every frame the design
// needs — STREAM, ACK (with up to 256 ranges and a Path ID), stream- and
// connection-level WINDOW_UPDATE, and the new multipath frames
// ADD_ADDRESS and PATHS.
//
// Every type knows its exact encoded size, so the emulator can account
// on-wire bytes without serializing in the hot path; integration tests
// serialize and re-parse every packet to prove the accounting honest.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Varint bounds, matching QUIC's 2-bit length prefix scheme.
const (
	maxVarint1 = 63
	maxVarint2 = 16383
	maxVarint4 = 1073741823
	maxVarint8 = 4611686018427387903
)

var errVarintRange = errors.New("wire: value exceeds varint range")

// maxDurationUS is the largest microsecond count representable as a
// time.Duration. Varints can carry up to 2^62-1, so decoders of
// microsecond fields must reject anything above this bound or the
// duration silently overflows (and can no longer be re-encoded).
const maxDurationUS = uint64(1<<63-1) / 1000

var errDurationRange = errors.New("wire: microsecond value overflows time.Duration")

// ErrTruncated reports a buffer that ended inside a field.
var ErrTruncated = errors.New("wire: truncated input")

// VarintLen returns the number of bytes AppendVarint will use for v.
func VarintLen(v uint64) int {
	switch {
	case v <= maxVarint1:
		return 1
	case v <= maxVarint2:
		return 2
	case v <= maxVarint4:
		return 4
	case v <= maxVarint8:
		return 8
	default:
		panic(errVarintRange)
	}
}

// AppendVarint appends the QUIC varint encoding of v to b.
func AppendVarint(b []byte, v uint64) []byte {
	switch {
	case v <= maxVarint1:
		return append(b, byte(v))
	case v <= maxVarint2:
		return append(b, byte(v>>8)|0x40, byte(v))
	case v <= maxVarint4:
		return append(b, byte(v>>24)|0x80, byte(v>>16), byte(v>>8), byte(v))
	case v <= maxVarint8:
		return append(b, byte(v>>56)|0xc0, byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	default:
		panic(errVarintRange)
	}
}

// ConsumeVarint parses a varint from the front of b, returning the
// value and the number of bytes consumed.
func ConsumeVarint(b []byte) (uint64, int, error) {
	if len(b) == 0 {
		return 0, 0, ErrTruncated
	}
	n := 1 << (b[0] >> 6)
	if len(b) < n {
		return 0, 0, ErrTruncated
	}
	switch n {
	case 1:
		return uint64(b[0]), 1, nil
	case 2:
		return uint64(binary.BigEndian.Uint16(b)) & maxVarint2, 2, nil
	case 4:
		return uint64(binary.BigEndian.Uint32(b)) & maxVarint4, 4, nil
	}
	return binary.BigEndian.Uint64(b) & maxVarint8, 8, nil
}

func appendUint16(b []byte, v uint16) []byte {
	return append(b, byte(v>>8), byte(v))
}

func appendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendUint64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func consumeUint16(b []byte) (uint16, int, error) {
	if len(b) < 2 {
		return 0, 0, ErrTruncated
	}
	return uint16(b[0])<<8 | uint16(b[1]), 2, nil
}

func consumeUint32(b []byte) (uint32, int, error) {
	if len(b) < 4 {
		return 0, 0, ErrTruncated
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), 4, nil
}

func consumeUint64(b []byte) (uint64, int, error) {
	if len(b) < 8 {
		return 0, 0, ErrTruncated
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v, 8, nil
}

func consumeBytes(b []byte, n int) ([]byte, int, error) {
	if n < 0 || len(b) < n {
		return nil, 0, ErrTruncated
	}
	return b[:n], n, nil
}

func frameErr(kind string, err error) error {
	return fmt.Errorf("wire: decoding %s frame: %w", kind, err)
}
