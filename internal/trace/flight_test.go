package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestFlightRecorderRingSemantics(t *testing.T) {
	r := NewFlightRecorder(4)
	if r.Len() != 0 || r.seen != 0 || r.Dropped() != 0 {
		t.Fatal("fresh recorder not empty")
	}
	for pn := uint64(1); pn <= 3; pn++ {
		r.Trace(Event{Type: PacketSent, PN: pn})
	}
	if r.Len() != 3 || r.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d after 3 events, want 3/0", r.Len(), r.Dropped())
	}
	for pn := uint64(4); pn <= 10; pn++ {
		r.Trace(Event{Type: PacketSent, PN: pn})
	}
	if r.Len() != 4 || r.seen != 10 || r.Dropped() != 6 {
		t.Fatalf("len=%d seen=%d dropped=%d, want 4/10/6", r.Len(), r.seen, r.Dropped())
	}
	evs := append(append([]Event(nil), r.buf[r.next:]...), r.buf[:r.next]...)
	for i, want := range []uint64{7, 8, 9, 10} {
		if evs[i].PN != want {
			t.Fatalf("event %d has PN %d, want %d (oldest-first, newest retained)", i, evs[i].PN, want)
		}
	}
}

func TestFlightRecorderDumpJSONL(t *testing.T) {
	r := NewFlightRecorder(2)
	r.Trace(Event{Time: time.Millisecond, Type: PacketSent, PN: 1})
	r.Trace(Event{Time: 2 * time.Millisecond, Type: RTOFired, Path: 1})
	r.Trace(Event{Time: 3 * time.Millisecond, Type: ConnClosed})

	var buf bytes.Buffer
	if err := r.DumpJSONL(&buf, "rto_storm"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 { // header + 2 retained events
		t.Fatalf("dump lines = %d, want 3", len(lines))
	}
	var hdr struct {
		Reason  string `json:"flight_recorder"`
		Events  int    `json:"events"`
		Seen    uint64 `json:"seen"`
		Dropped uint64 `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Reason != "rto_storm" || hdr.Events != 2 || hdr.Seen != 3 || hdr.Dropped != 1 {
		t.Fatalf("header = %+v, want rto_storm/2/3/1", hdr)
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Type != RTOFired {
		t.Fatalf("first dumped event = %s, want %s (oldest retained)", ev.Type, RTOFired)
	}

	// Byte-identical across dumps of the same state.
	var buf2 bytes.Buffer
	if err := r.DumpJSONL(&buf2, "rto_storm"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("repeated dumps of the same ring differ")
	}
}

func TestSeriesRecorder(t *testing.T) {
	r := NewSeriesRecorder()
	for i := 0; i < 3; i++ {
		ts := time.Duration(i) * 100 * time.Millisecond
		r.Add(PathSample{T: ts, Path: 0, Cwnd: 10000 + i})
		r.Add(PathSample{T: ts, Path: 1, Cwnd: 20000 + i})
	}
	if s := r.Samples; len(s) != 6 || s[1].Path != 1 || s[5].Path != 1 || s[5].Cwnd != 20002 {
		t.Fatalf("Samples = %+v, want path 1 interleaved, ending at cwnd 20002", s)
	}

	var a, b bytes.Buffer
	if err := r.EncodeJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.EncodeJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("series encoding not reproducible")
	}
	for i, line := range strings.Split(strings.TrimRight(a.String(), "\n"), "\n") {
		var s PathSample
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
	}
}
