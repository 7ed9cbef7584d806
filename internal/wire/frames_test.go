package wire

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// roundTrip encodes f, checks EncodedSize against the actual output,
// parses it back, and returns the parsed frame.
func roundTrip(t *testing.T, f Frame) Frame {
	t.Helper()
	b := f.Append(nil)
	if len(b) != f.EncodedSize() {
		t.Fatalf("%T: EncodedSize %d != encoded %d", f, f.EncodedSize(), len(b))
	}
	got, n, err := parseFrame(nil, b, false)
	if err != nil {
		t.Fatalf("%T: parse: %v", f, err)
	}
	if n != len(b) {
		t.Fatalf("%T: consumed %d of %d", f, n, len(b))
	}
	return got
}

func TestPaddingFrameRoundTrip(t *testing.T) {
	got := roundTrip(t, &PaddingFrame{Length: 17}).(*PaddingFrame)
	if got.Length != 17 {
		t.Fatalf("length %d", got.Length)
	}
	if got.Retransmittable() {
		t.Fatal("padding must not be retransmittable")
	}
}

func TestPingFrameRoundTrip(t *testing.T) {
	got := roundTrip(t, &PingFrame{})
	if _, ok := got.(*PingFrame); !ok || !got.Retransmittable() {
		t.Fatal("ping broken")
	}
}

func TestStreamFrameRoundTrip(t *testing.T) {
	f := &StreamFrame{StreamID: 3, Offset: 100000, Data: []byte("hello multipath"), Fin: true}
	got := roundTrip(t, f).(*StreamFrame)
	if got.StreamID != 3 || got.Offset != 100000 || !got.Fin || !bytes.Equal(got.Data, f.Data) {
		t.Fatalf("got %+v", got)
	}
}

func TestStreamFrameStructModeSizeMatchesDataMode(t *testing.T) {
	withData := &StreamFrame{StreamID: 5, Offset: 42, Data: make([]byte, 1000)}
	structMode := &StreamFrame{StreamID: 5, Offset: 42, DataLen: 1000}
	if withData.EncodedSize() != structMode.EncodedSize() {
		t.Fatalf("struct mode size %d != data mode %d", structMode.EncodedSize(), withData.EncodedSize())
	}
	b := structMode.Append(nil)
	if len(b) != structMode.EncodedSize() {
		t.Fatal("struct-mode encoding size mismatch")
	}
	got, _, err := parseFrame(nil, b, false)
	if err != nil || got.(*StreamFrame).Len() != 1000 {
		t.Fatalf("struct-mode parse: %v", err)
	}
}

// TestStreamFrameFillerMatchesByteLoop pins the nil-Data payload to the
// bytes a one-at-a-time loop of 0xAA appends, on both sides of the
// filler array's length.
func TestStreamFrameFillerMatchesByteLoop(t *testing.T) {
	for _, n := range []int{0, 1, 1499, 1500, 3001} {
		f := &StreamFrame{StreamID: 3, Offset: 77, DataLen: n, Fin: n == 1}
		prefix := []byte{0x42}
		want := append([]byte(nil), prefix...)
		want = append(want, byte(TypeStream)|boolByte(f.Fin))
		want = AppendVarint(want, uint64(f.StreamID))
		want = AppendVarint(want, f.Offset)
		want = AppendVarint(want, uint64(n))
		for i := 0; i < n; i++ {
			want = append(want, 0xAA)
		}
		if got := f.Append(append([]byte(nil), prefix...)); !bytes.Equal(got, want) {
			t.Fatalf("DataLen %d: Append wrote %d bytes, want %d (first difference at %d)", n, len(got), len(want), firstDiff(got, want))
		}
	}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func TestStreamFrameMaxStreamDataLen(t *testing.T) {
	for _, budget := range []int{10, 50, 100, 1000, 1350} {
		f := &StreamFrame{StreamID: 3, Offset: 1 << 20}
		l := f.MaxStreamDataLen(budget)
		f.DataLen = l
		if f.EncodedSize() > budget {
			t.Fatalf("budget %d: frame encodes to %d", budget, f.EncodedSize())
		}
		f.DataLen = l + 1
		if l > 0 && f.EncodedSize() <= budget {
			t.Fatalf("budget %d: MaxStreamDataLen %d not maximal", budget, l)
		}
	}
}

func TestWindowUpdateFrameRoundTrip(t *testing.T) {
	f := &WindowUpdateFrame{StreamID: 0, Offset: 16 << 20}
	got := roundTrip(t, f).(*WindowUpdateFrame)
	if got.StreamID != 0 || got.Offset != 16<<20 {
		t.Fatalf("got %+v", got)
	}
}

func TestBlockedFrameRoundTrip(t *testing.T) {
	got := roundTrip(t, &BlockedFrame{StreamID: 7}).(*BlockedFrame)
	if got.StreamID != 7 {
		t.Fatalf("got %+v", got)
	}
}

func TestAddAddressFrameRoundTrip(t *testing.T) {
	f := &AddAddressFrame{AddrIndex: 2, Address: "[2001:db8::1]:443"}
	got := roundTrip(t, f).(*AddAddressFrame)
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("got %+v want %+v", got, f)
	}
}

func TestPathsFrameRoundTrip(t *testing.T) {
	f := &PathsFrame{Paths: []PathInfo{
		{PathID: 0, PotentiallyFailed: true, SRTT: 15 * time.Millisecond},
		{PathID: 3, SRTT: 25400 * time.Microsecond},
	}}
	got := roundTrip(t, f).(*PathsFrame)
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("got %+v want %+v", got, f)
	}
}

func TestConnectionCloseFrameRoundTrip(t *testing.T) {
	f := &ConnectionCloseFrame{ErrorCode: 42, Reason: "done"}
	got := roundTrip(t, f).(*ConnectionCloseFrame)
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("got %+v", got)
	}
}

func TestHandshakeFrameRoundTrip(t *testing.T) {
	f := &HandshakeFrame{Message: HandshakeSHLO, Payload: []byte{1, 2, 3, 4}}
	got := roundTrip(t, f).(*HandshakeFrame)
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("got %+v", got)
	}
}

func TestParseFrameErrors(t *testing.T) {
	if _, _, err := parseFrame(nil, nil, false); err == nil {
		t.Fatal("empty accepted")
	}
	if _, _, err := parseFrame(nil, []byte{0x3f}, false); err == nil {
		t.Fatal("unknown type accepted")
	}
	// Truncated STREAM frame.
	f := &StreamFrame{StreamID: 1, Offset: 2, Data: []byte("abcdef")}
	b := f.Append(nil)
	if _, _, err := parseFrame(nil, b[:len(b)-3], false); err == nil {
		t.Fatal("truncated stream frame accepted")
	}
}

func TestStreamFrameRoundTripProperty(t *testing.T) {
	f := func(sid uint32, offset uint32, data []byte, fin bool) bool {
		fr := &StreamFrame{StreamID: StreamID(sid), Offset: uint64(offset), Data: data, Fin: fin}
		b := fr.Append(nil)
		if len(b) != fr.EncodedSize() {
			return false
		}
		got, n, err := parseFrame(nil, b, false)
		if err != nil || n != len(b) {
			return false
		}
		g := got.(*StreamFrame)
		return g.StreamID == fr.StreamID && g.Offset == fr.Offset &&
			g.Fin == fin && bytes.Equal(g.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
