package wire

import (
	"testing"
	"testing/quick"
)

// Decoding arbitrary bytes must never panic — a remote peer controls
// this input. Errors are fine; crashes are not.
func TestDecodeArbitraryBytesNeverPanics(t *testing.T) {
	f := func(b []byte, largest uint32) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %x: %v", b, r)
			}
		}()
		_, _ = Decode(b, PacketNumber(largest), nil)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestParseFrameArbitraryBytesNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("parseFrame panicked on %x: %v", b, r)
			}
		}()
		_, _, _ = parseFrame(nil, b, false)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Bit-flipping a valid packet must either fail decoding or produce a
// structurally valid parse — never a panic.
func TestDecodeBitFlippedPacket(t *testing.T) {
	p := testPacket()
	base := p.EncodeTo(nil, nil)
	for i := 0; i < len(base); i++ {
		for _, mask := range []byte{0x01, 0x80} {
			mutated := append([]byte{}, base...)
			mutated[i] ^= mask
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic flipping byte %d mask %#x: %v", i, mask, r)
					}
				}()
				_, _ = Decode(mutated, 41, nil)
			}()
		}
	}
}

// Truncating a valid packet at every possible length must never panic.
func TestDecodeEveryTruncation(t *testing.T) {
	p := testPacket()
	base := p.EncodeTo(nil, nil)
	for n := 0; n < len(base); n++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at truncation %d: %v", n, r)
				}
			}()
			_, _ = Decode(base[:n], 41, nil)
		}()
	}
}
