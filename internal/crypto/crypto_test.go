package crypto

import (
	"bytes"
	"testing"
	"testing/quick"

	"mpquic/internal/wire"
)

func handshakeSealers(t *testing.T) (*Sealer, *Sealer) {
	t.Helper()
	c := NewClientHandshake(1)
	s := NewServerHandshake(2)
	shlo, err := s.OnCHLO(c.CHLO())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.OnSHLO(shlo); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Secret(), s.Secret()) {
		t.Fatal("handshake secrets differ")
	}
	c2s, _ := SessionKeys(c.Secret())
	seal, err := NewSealer(c2s, true)
	if err != nil {
		t.Fatal(err)
	}
	open, err := NewSealer(c2s, true)
	if err != nil {
		t.Fatal(err)
	}
	return seal, open
}

func TestHandshakeDerivesSharedSecret(t *testing.T) {
	c := NewClientHandshake(10)
	s := NewServerHandshake(20)
	if c.done || s.done {
		t.Fatal("done before exchange")
	}
	shlo, err := s.OnCHLO(c.CHLO())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.OnSHLO(shlo); err != nil {
		t.Fatal(err)
	}
	if !c.done || !s.done {
		t.Fatal("not done after exchange")
	}
	if !bytes.Equal(c.Secret(), s.Secret()) {
		t.Fatal("secret mismatch")
	}
	if len(c.CHLO()) != HandshakeMessageSize {
		t.Fatalf("CHLO size %d", len(c.CHLO()))
	}
}

func TestHandshakeDifferentSeedsDifferentSecrets(t *testing.T) {
	run := func(cs, ss uint64) []byte {
		c := NewClientHandshake(cs)
		s := NewServerHandshake(ss)
		shlo, _ := s.OnCHLO(c.CHLO())
		c.OnSHLO(shlo)
		return c.Secret()
	}
	if bytes.Equal(run(1, 2), run(3, 4)) {
		t.Fatal("different seeds produced same secret")
	}
}

func TestHandshakeRejectsShortMessages(t *testing.T) {
	c := NewClientHandshake(1)
	if err := c.OnSHLO([]byte{1, 2, 3}); err == nil {
		t.Fatal("short SHLO accepted")
	}
	s := NewServerHandshake(1)
	if _, err := s.OnCHLO(nil); err == nil {
		t.Fatal("short CHLO accepted")
	}
}

func TestSecretPanicsBeforeCompletion(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewClientHandshake(1).Secret()
}

func TestSealOpenRoundTrip(t *testing.T) {
	seal, open := handshakeSealers(t)
	header := []byte{0x04, 1, 2, 3}
	pt := []byte("some protected frames")
	ct := seal.Seal(1, 42, header, pt)
	if len(ct) != len(pt)+wire.AEADOverhead {
		t.Fatalf("ciphertext length %d, want %d", len(ct), len(pt)+wire.AEADOverhead)
	}
	got, err := open.Open(1, 42, header, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatal("plaintext mismatch")
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	seal, open := handshakeSealers(t)
	header := []byte{0x04, 9}
	ct := seal.Seal(0, 7, header, []byte("data"))

	bad := append([]byte{}, ct...)
	bad[0] ^= 1
	if _, err := open.Open(0, 7, header, bad); err == nil {
		t.Fatal("tampered ciphertext accepted")
	}
	if _, err := open.Open(0, 7, []byte{0xff}, ct); err == nil {
		t.Fatal("tampered header (AAD) accepted")
	}
	if _, err := open.Open(0, 8, header, ct); err == nil {
		t.Fatal("wrong packet number accepted")
	}
	if _, err := open.Open(1, 7, header, ct); err == nil {
		t.Fatal("wrong path accepted")
	}
}

// nonceFor returns a copy of the nonce s seals (path, pn) under.
func nonceFor(s *Sealer, path wire.PathID, pn wire.PacketNumber) []byte {
	s.setNonce(path, pn)
	n := s.nonce
	return n[:]
}

// The nonce is the IV with its low 8 bytes XORed with PathID<<56 ‖
// PacketNumber (without the multipath nonce, the packet number alone),
// byte for byte, for any order of calls: each call builds it from the
// IV, not from the last call's nonce.
func TestNonceBytesFollowTheFormula(t *testing.T) {
	k := DeriveKeys([]byte("nonce formula"), "s2c")
	cases := []struct {
		path wire.PathID
		pn   wire.PacketNumber
	}{
		{0, 0}, {0, 1}, {1, 1}, {3, 1000}, {0, 1000}, {255, 1<<56 - 1}, {7, 0x0102030405}, {0, 0},
	}
	for _, multipath := range []bool{true, false} {
		s, err := NewSealer(k, multipath)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			want := k.IV
			xor := [8]byte{byte(c.pn >> 56), byte(c.pn >> 48), byte(c.pn >> 40), byte(c.pn >> 32), byte(c.pn >> 24), byte(c.pn >> 16), byte(c.pn >> 8), byte(c.pn)}
			if multipath {
				xor[0] |= byte(c.path)
			}
			for i := range xor {
				want[4+i] ^= xor[i]
			}
			if got := nonceFor(s, c.path, c.pn); !bytes.Equal(got, want[:]) {
				t.Fatalf("multipath=%v, path %d, pn %#x: nonce %x, want %x", multipath, c.path, c.pn, got, want)
			}
		}
	}
}

func TestMultipathNonceUniqueAcrossPaths(t *testing.T) {
	seal, _ := handshakeSealers(t)
	// Same PN on different paths must give different nonces (the §3
	// security requirement).
	n0 := nonceFor(seal, 0, 1000)
	n1 := nonceFor(seal, 1, 1000)
	if bytes.Equal(n0, n1) {
		t.Fatal("nonce reused across paths")
	}
}

func TestSinglepathNonceCollidesAcrossPaths(t *testing.T) {
	// The strawman the paper warns about: without the Path ID in the
	// nonce, two paths reuse nonces.
	k := DeriveKeys([]byte("secret"), "c2s")
	s, err := NewSealer(k, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nonceFor(s, 0, 1000), nonceFor(s, 3, 1000)) {
		t.Fatal("expected collision without multipath nonce")
	}
}

func TestNonceUniquenessProperty(t *testing.T) {
	seal, _ := handshakeSealers(t)
	f := func(p1, p2 uint8, pn1, pn2 uint32) bool {
		if p1 == p2 && pn1 == pn2 {
			return true
		}
		n1 := nonceFor(seal, wire.PathID(p1), wire.PacketNumber(pn1))
		n2 := nonceFor(seal, wire.PathID(p2), wire.PacketNumber(pn2))
		return !bytes.Equal(n1, n2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveKeysDistinctPerLabel(t *testing.T) {
	a := DeriveKeys([]byte("s"), "c2s")
	b := DeriveKeys([]byte("s"), "s2c")
	if a.Key == b.Key || a.IV == b.IV {
		t.Fatal("directional keys not distinct")
	}
}

func TestSealedPacketThroughWireCodec(t *testing.T) {
	seal, open := handshakeSealers(t)
	p := &wire.Packet{
		Header: wire.Header{ConnID: 5, Multipath: true, PathID: 1, PacketNumber: 9},
		Frames: []wire.Frame{&wire.StreamFrame{StreamID: 3, Offset: 0, Data: []byte("secret payload")}},
	}
	b := p.EncodeTo(nil, seal)
	if n := len(p.EncodeTo(nil, nil)); len(b) != n {
		t.Fatalf("sealed size %d != unsealed size %d", len(b), n)
	}
	got, err := wire.Decode(b, wire.InvalidPacketNumber, open)
	if err != nil {
		t.Fatal(err)
	}
	sf := got.Frames[0].(*wire.StreamFrame)
	if string(sf.Data) != "secret payload" {
		t.Fatalf("payload %q", sf.Data)
	}
	// Decode with nil sealer must NOT recover the plaintext frames.
	if p2, err := wire.Decode(b, wire.InvalidPacketNumber, nil); err == nil {
		for _, f := range p2.Frames {
			if sf, ok := f.(*wire.StreamFrame); ok && string(sf.Data) == "secret payload" {
				t.Fatal("sealed payload readable without keys")
			}
		}
	}
}

// sealedDataPacket returns a sealed packet and the length of its
// cleartext public header.
func sealedDataPacket(t *testing.T, seal *Sealer) (b []byte, hdrLen int) {
	t.Helper()
	p := &wire.Packet{
		Header: wire.Header{ConnID: 5, Multipath: true, PathID: 1, PacketNumber: 9},
		Frames: []wire.Frame{
			&wire.AckFrame{PathID: 1, Ranges: []wire.AckRange{{Smallest: 2, Largest: 7}}},
			&wire.StreamFrame{StreamID: 3, Offset: 40, Data: []byte("secret payload")},
		},
	}
	b = p.EncodeTo(nil, seal)
	_, hdrLen, err := wire.ParseHeader(b, wire.InvalidPacketNumber)
	if err != nil {
		t.Fatal(err)
	}
	return b, hdrLen
}

// TestDecodeLeavesSealedInputUntouched pins the split between the two
// decoders: only the borrowing ones (DecodeBorrowed, DecodeInto) may
// open a payload in place. wire.Decode must leave its input as it found
// it — callers decode the same sealed bytes again.
func TestDecodeLeavesSealedInputUntouched(t *testing.T) {
	seal, open := handshakeSealers(t)
	b, hdrLen := sealedDataPacket(t, seal)
	orig := append([]byte(nil), b...)
	for i := 0; i < 2; i++ {
		p, err := wire.Decode(b, wire.InvalidPacketNumber, open)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, orig) {
			t.Fatalf("Decode #%d modified its input", i+1)
		}
		if sf := p.Frames[1].(*wire.StreamFrame); string(sf.Data) != "secret payload" {
			t.Fatalf("payload %q", sf.Data)
		}
	}
	// The borrowing decode does open in place: the payload region now
	// holds the plaintext frames, and its frames alias the buffer.
	var (
		p       wire.Packet
		scratch wire.FrameArena
	)
	if err := wire.DecodeInto(&p, &scratch, b, wire.InvalidPacketNumber, open); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b[hdrLen:], orig[hdrLen:]) {
		t.Fatal("DecodeInto left the ciphertext in place: it did not open in place")
	}
	if !bytes.Equal(b[:hdrLen], orig[:hdrLen]) {
		t.Fatal("DecodeInto modified the public header")
	}
	sf := p.Frames[1].(*wire.StreamFrame)
	if string(sf.Data) != "secret payload" || !bytes.Contains(b, sf.Data) {
		t.Fatalf("in-place payload %q", sf.Data)
	}
}

// TestInPlaceOpenRejectsEveryBitFlip: the in-place open is the same
// AEAD as Open — every single-bit forgery of header or payload that
// Open rejects, the in-place open rejects too, and a rejected packet
// yields no frames.
func TestInPlaceOpenRejectsEveryBitFlip(t *testing.T) {
	seal, open := handshakeSealers(t)
	b, hdrLen := sealedDataPacket(t, seal)
	var (
		p       wire.Packet
		scratch wire.FrameArena
	)
	forged := make([]byte, len(b))
	// Skip the flag byte: flipping its bits changes the header layout,
	// which is ParseHeader's business, not the AEAD's.
	for bit := 8; bit < len(b)*8; bit++ {
		copy(forged, b)
		forged[bit/8] ^= 1 << (bit % 8)
		hdr, n, err := wire.ParseHeader(forged, wire.InvalidPacketNumber)
		if err != nil || n != hdrLen {
			t.Fatalf("bit %d: header no longer parses alike", bit)
		}
		_, errOpen := open.Open(hdr.PathID, hdr.PacketNumber, forged[:n], forged[n:])
		errInPlace := wire.DecodeInto(&p, &scratch, forged, wire.InvalidPacketNumber, open)
		if errOpen == nil || errInPlace == nil {
			t.Fatalf("bit %d: forgery accepted (Open err=%v, in-place err=%v)", bit, errOpen, errInPlace)
		}
		if len(p.Frames) != 0 {
			t.Fatalf("bit %d: rejected packet still carries %d frames", bit, len(p.Frames))
		}
	}
	// The untouched packet still opens.
	copy(forged, b)
	if err := wire.DecodeInto(&p, &scratch, forged, wire.InvalidPacketNumber, open); err != nil || len(p.Frames) != 2 {
		t.Fatalf("genuine packet: err=%v frames=%d", err, len(p.Frames))
	}
}
