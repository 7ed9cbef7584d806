package wire

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// fuzzSeedPackets builds one encodable packet per frame type (plus two
// dense ACKs, a handshake packet and a single-path packet), the
// native-fuzzing seed corpus for FuzzDecode and FuzzDecodeBorrowed.
func fuzzSeedPackets() []*Packet {
	hdr := func(pn PacketNumber) Header {
		return Header{ConnID: 0xfeed_beef_cafe_f00d, Multipath: true, PathID: 1, PacketNumber: pn}
	}
	return []*Packet{
		{Header: hdr(1), Frames: []Frame{&PaddingFrame{Length: 7}}},
		{Header: hdr(2), Frames: []Frame{&PingFrame{}}},
		{Header: hdr(3), Frames: []Frame{&StreamFrame{StreamID: 5, Offset: 1 << 16, Data: []byte("stream data"), Fin: true}}},
		{Header: hdr(4), LargestAcked: 3, Frames: []Frame{&AckFrame{
			PathID:   1,
			Ranges:   []AckRange{{Smallest: 9, Largest: 12}, {Smallest: 2, Largest: 5}},
			AckDelay: 250 * time.Microsecond,
		}}},
		// Dense ACKs, the common shape after losses: 91 ranges of
		// one-byte gaps and lengths, and the same with one two-byte
		// length mid-run.
		{Header: hdr(4), LargestAcked: 3, Frames: []Frame{denseAck(91, 0)}},
		{Header: hdr(4), LargestAcked: 3, Frames: []Frame{denseAck(91, 45)}},
		{Header: hdr(5), Frames: []Frame{&WindowUpdateFrame{StreamID: 3, Offset: 1 << 24}}},
		{Header: hdr(6), Frames: []Frame{&BlockedFrame{StreamID: 3}}},
		{Header: hdr(7), Frames: []Frame{&AddAddressFrame{AddrIndex: 1, Address: "server-v6"}}},
		{Header: hdr(8), Frames: []Frame{&PathsFrame{Paths: []PathInfo{
			{PathID: 0, SRTT: 30 * time.Millisecond},
			{PathID: 1, PotentiallyFailed: true, SRTT: 90 * time.Millisecond},
		}}}},
		{Header: hdr(9), Frames: []Frame{&ConnectionCloseFrame{ErrorCode: 42, Reason: "done"}}},
		{Header: Header{ConnID: 1, Handshake: true, PacketNumber: 1},
			Frames: []Frame{&HandshakeFrame{Message: HandshakeCHLO, Payload: []byte("chlo")}}},
		{Header: Header{ConnID: 2, PacketNumber: 10},
			Frames: []Frame{&StreamFrame{StreamID: 1, Data: []byte("single path")}}},
	}
}

// FuzzDecode asserts three properties on arbitrary input: decoding
// never panics; every ACK frame the decoder accepts passes Validate
// (parseAckFrame does not call it, relying on its decode loop to
// establish the same invariants); and any packet that decodes
// successfully re-encodes to a byte-level fixed point
// (encode∘decode∘encode = encode), so the codec is lossless over its
// accepted language.
func FuzzDecode(f *testing.F) {
	for _, p := range fuzzSeedPackets() {
		f.Add(p.EncodeTo(nil, nil), uint32(p.Header.PacketNumber))
	}
	f.Add([]byte{}, uint32(0))
	f.Fuzz(func(t *testing.T, b []byte, largest uint32) {
		p1, err := Decode(b, PacketNumber(largest), nil)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		for _, fr := range p1.Frames {
			if ack, ok := fr.(*AckFrame); ok {
				if err := ack.Validate(); err != nil {
					t.Fatalf("decoder accepted an invalid ACK frame (%v): %+v\ninput: %x", err, ack.Ranges, b)
				}
			}
		}
		e1 := p1.EncodeTo(nil, nil)
		p2, err := Decode(e1, PacketNumber(largest), nil)
		if err != nil {
			t.Fatalf("re-encoded packet no longer decodes: %v\ninput:   %x\nencoded: %x", err, b, e1)
		}
		e2 := p2.EncodeTo(nil, nil)
		if !bytes.Equal(e1, e2) {
			t.Fatalf("encode is not a fixed point:\ne1: %x\ne2: %x", e1, e2)
		}
	})
}

// FuzzDecodeBorrowed asserts DecodeBorrowed never panics and agrees
// exactly with Decode — same error, structurally identical packet —
// and that the borrowed packet's aliases really point into the input
// (mutating the buffer after a copying Decode must not change it,
// while the borrowed decode is free to).
func FuzzDecodeBorrowed(f *testing.F) {
	for _, p := range fuzzSeedPackets() {
		f.Add(p.EncodeTo(nil, nil), uint32(p.Header.PacketNumber))
	}
	f.Fuzz(func(t *testing.T, b []byte, largest uint32) {
		owned, errOwned := Decode(append([]byte(nil), b...), PacketNumber(largest), nil)
		borrowed, errBorrowed := DecodeBorrowed(append([]byte(nil), b...), PacketNumber(largest), nil)
		if (errOwned == nil) != (errBorrowed == nil) {
			t.Fatalf("Decode err=%v but DecodeBorrowed err=%v on %x", errOwned, errBorrowed, b)
		}
		if errOwned != nil {
			return
		}
		if !reflect.DeepEqual(owned, borrowed) {
			t.Fatalf("DecodeBorrowed disagrees with Decode on %x:\nowned:    %#v\nborrowed: %#v", b, owned, borrowed)
		}
	})
}
