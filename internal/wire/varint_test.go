package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestVarintKnownEncodings(t *testing.T) {
	cases := []struct {
		v    uint64
		want []byte
	}{
		{0, []byte{0x00}},
		{63, []byte{0x3f}},
		{64, []byte{0x40, 0x40}},
		{16383, []byte{0x7f, 0xff}},
		{16384, []byte{0x80, 0x00, 0x40, 0x00}},
		{1073741823, []byte{0xbf, 0xff, 0xff, 0xff}},
		{1073741824, []byte{0xc0, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00}},
	}
	for _, c := range cases {
		got := AppendVarint(nil, c.v)
		if !bytes.Equal(got, c.want) {
			t.Errorf("AppendVarint(%d) = %x, want %x", c.v, got, c.want)
		}
		if VarintLen(c.v) != len(c.want) {
			t.Errorf("VarintLen(%d) = %d, want %d", c.v, VarintLen(c.v), len(c.want))
		}
		v, n, err := ConsumeVarint(got)
		if err != nil || v != c.v || n != len(c.want) {
			t.Errorf("ConsumeVarint(%x) = (%d,%d,%v)", got, v, n, err)
		}
	}
}

func TestVarintRoundTripProperty(t *testing.T) {
	f := func(raw uint64) bool {
		v := raw & maxVarint8
		b := AppendVarint(nil, v)
		if len(b) != VarintLen(v) {
			return false
		}
		got, n, err := ConsumeVarint(b)
		return err == nil && got == v && n == len(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestVarintTruncated(t *testing.T) {
	if _, _, err := ConsumeVarint(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	b := AppendVarint(nil, 100000)
	if _, _, err := ConsumeVarint(b[:2]); err == nil {
		t.Fatal("truncated varint accepted")
	}
}

func TestVarintPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range varint")
		}
	}()
	AppendVarint(nil, maxVarint8+1)
}

func TestVarintConsumeMidBuffer(t *testing.T) {
	b := AppendVarint(nil, 300)
	b = AppendVarint(b, 5)
	v1, n1, err := ConsumeVarint(b)
	if err != nil || v1 != 300 {
		t.Fatalf("first: %d %v", v1, err)
	}
	v2, n2, err := ConsumeVarint(b[n1:])
	if err != nil || v2 != 5 || n1+n2 != len(b) {
		t.Fatalf("second: %d %v", v2, err)
	}
}

// consumeVarintRef is ConsumeVarint before its switch on the length
// prefix: the value assembled a byte at a time.
func consumeVarintRef(b []byte) (uint64, int, error) {
	if len(b) == 0 {
		return 0, 0, ErrTruncated
	}
	length := 1 << (b[0] >> 6)
	if len(b) < length {
		return 0, 0, ErrTruncated
	}
	v := uint64(b[0] & 0x3f)
	for i := 1; i < length; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v, length, nil
}

func TestConsumeVarintMatchesReference(t *testing.T) {
	for _, v := range []uint64{0, 63, 64, 16383, 16384, maxVarint4, maxVarint4 + 1, maxVarint8} {
		b := AppendVarint(nil, v)
		for cut := 0; cut <= len(b); cut++ {
			got, n, err := ConsumeVarint(b[:cut])
			want, nRef, errRef := consumeVarintRef(b[:cut])
			if got != want || n != nRef || err != errRef {
				t.Fatalf("%x: (%d, %d, %v), reference (%d, %d, %v)", b[:cut], got, n, err, want, nRef, errRef)
			}
		}
	}
}
