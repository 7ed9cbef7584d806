package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func sample() Event {
	return Event{
		Time: 1500 * time.Millisecond,
		Type: PacketSent,
		Path: 1,
		PN:   42,
		Size: 1378,
		Cwnd: 13500,
		SRTT: 30 * time.Millisecond,
	}
}

func TestTextTracer(t *testing.T) {
	var buf bytes.Buffer
	tr := NewText(&buf)
	tr.Trace(sample())
	out := buf.String()
	for _, want := range []string{"1.500000", "packet_sent", "path=1", "pn=42", "size=1378", "cwnd=13500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in %q", want, out)
		}
	}
}

func TestJSONTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSON(&buf)
	tr.Trace(sample())
	tr.Trace(Event{Type: ConnClosed, Detail: "done"})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Type != PacketSent || ev.PN != 42 {
		t.Fatalf("round trip %+v", ev)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Trace(sample())
	c.Trace(sample())
	c.Trace(Event{Type: PacketLost, Path: 3})
	if c.Counts[PacketSent] != 2 || c.Counts[PacketLost] != 1 {
		t.Fatalf("counts %+v", c.Counts)
	}
	if c.ByPath[1][PacketSent] != 2 || c.ByPath[3][PacketLost] != 1 {
		t.Fatalf("by path %+v", c.ByPath)
	}
}

func TestMultiAndFilter(t *testing.T) {
	a, b := NewCounter(), NewCounter()
	m := Multi{a, NewFilter(b, PacketLost)}
	m.Trace(sample())
	m.Trace(Event{Type: PacketLost})
	if a.Counts[PacketSent] != 1 || a.Counts[PacketLost] != 1 {
		t.Fatal("multi fan-out broken")
	}
	if b.Counts[PacketSent] != 0 || b.Counts[PacketLost] != 1 {
		t.Fatalf("filter broken: %+v", b.Counts)
	}
}
