package wire

import (
	"testing"
	"time"
)

func testPacket() *Packet {
	return &Packet{
		Header: Header{ConnID: 77, Multipath: true, PathID: 1, PacketNumber: 42},
		Frames: []Frame{
			&AckFrame{PathID: 0, Ranges: []AckRange{{Smallest: 1, Largest: 9}}, AckDelay: time.Millisecond},
			&StreamFrame{StreamID: 3, Offset: 1200, Data: []byte("payload bytes")},
			&WindowUpdateFrame{StreamID: 0, Offset: 1 << 24},
		},
		LargestAcked: 40,
	}
}

func TestPacketEncodeDecodeNilSealer(t *testing.T) {
	p := testPacket()
	b := p.EncodeTo(nil, nil)
	got, err := Decode(b, 41, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.PacketNumber != 42 || got.Header.PathID != 1 || !got.Header.Multipath {
		t.Fatalf("header %+v", got.Header)
	}
	if len(got.Frames) != 3 {
		t.Fatalf("frames %d", len(got.Frames))
	}
	sf := got.Frames[1].(*StreamFrame)
	if string(sf.Data) != "payload bytes" || sf.Offset != 1200 {
		t.Fatalf("stream frame %+v", sf)
	}
}

func TestPacketHandshakeNoAEADOverhead(t *testing.T) {
	p := &Packet{
		Header: Header{ConnID: 1, Handshake: true, PacketNumber: 1},
		Frames: []Frame{&HandshakeFrame{Message: HandshakeCHLO, Payload: make([]byte, 100)}},
	}
	b := p.EncodeTo(nil, nil)
	p2 := &Packet{
		Header: Header{ConnID: 1, PacketNumber: 1},
		Frames: p.Frames,
	}
	if n := len(p2.EncodeTo(nil, nil)); n != len(b)+AEADOverhead {
		t.Fatalf("protected packet should cost exactly AEADOverhead more: %d vs %d", n, len(b))
	}
	if _, err := Decode(b, InvalidPacketNumber, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPacketIsRetransmittable(t *testing.T) {
	ackOnly := &Packet{Frames: []Frame{&AckFrame{Ranges: []AckRange{{0, 0}}}}}
	if ackOnly.IsRetransmittable() {
		t.Fatal("ack-only packet marked retransmittable")
	}
	withPing := &Packet{Frames: []Frame{&AckFrame{Ranges: []AckRange{{0, 0}}}, &PingFrame{}}}
	if !withPing.IsRetransmittable() {
		t.Fatal("ping not retransmittable")
	}
}

func TestPacketFitsMTUAccounting(t *testing.T) {
	// A full-size packet plus IP/UDP framing must fit the emulator MTU.
	sf := &StreamFrame{StreamID: 3, Offset: 1 << 30}
	budget := MaxPacketSize - (&Header{ConnID: 1, Multipath: true, PathID: 1, PacketNumber: 1 << 20, PNLen: 4}).EncodedSize(0) - AEADOverhead
	sf.DataLen = sf.MaxStreamDataLen(budget)
	p := &Packet{
		Header: Header{ConnID: 1, Multipath: true, PathID: 1, PacketNumber: 1 << 20, PNLen: 4},
		Frames: []Frame{sf},
	}
	n := len(p.EncodeTo(nil, nil))
	if n > MaxPacketSize {
		t.Fatalf("packet %d exceeds MaxPacketSize", n)
	}
	if n+UDPIPv4Overhead > 1500 {
		t.Fatalf("datagram %d exceeds 1500-byte MTU", n+UDPIPv4Overhead)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	p := testPacket()
	b := p.EncodeTo(nil, nil)
	// Corrupt a frame type byte inside the payload.
	b[len(b)-AEADOverhead-1] ^= 0xff
	if _, err := Decode(b, 41, nil); err == nil {
		t.Log("corruption happened to parse; acceptable but unusual")
	}
	if _, err := Decode(b[:5], 41, nil); err == nil {
		t.Fatal("truncated packet accepted")
	}
}
