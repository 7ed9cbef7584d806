package trace

import (
	"encoding/json"
	"io"
)

// FlightRecorder is a bounded ring buffer of the most recent events —
// the post-mortem tracer. Arm it as a connection's (or the emulator's)
// Tracer and it retains the last capacity events at O(1) cost per
// event with zero allocations after construction; dump it only when a
// run turns anomalous (timeout, RTO storm, failed transfer), so
// healthy runs never pay trace I/O.
//
// Determinism contract: the recorder is a pure function of the event
// stream — same seed, same capacity, byte-identical dump. It holds no
// wall-clock state and performs no I/O until an explicit dump call.
//
// A FlightRecorder is not safe for concurrent use; like every Tracer
// in this package it belongs to one simulated world, which is
// single-goroutine by construction.
type FlightRecorder struct {
	buf  []Event
	next int
	full bool
	seen uint64
}

// DefaultFlightEvents is the ring capacity used when a caller passes a
// non-positive capacity: enough to hold several RTTs of a busy
// two-path transfer around the anomaly.
const DefaultFlightEvents = 4096

// NewFlightRecorder builds a recorder retaining the last capacity
// events (DefaultFlightEvents if capacity <= 0). All memory is
// allocated up front.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightEvents
	}
	return &FlightRecorder{buf: make([]Event, capacity)}
}

// Trace implements Tracer: append ev, evicting the oldest event once
// the ring is full.
func (r *FlightRecorder) Trace(ev Event) {
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.seen++
}

// Len reports the number of retained events.
func (r *FlightRecorder) Len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Dropped reports how many events were evicted by the ring bound.
func (r *FlightRecorder) Dropped() uint64 { return r.seen - uint64(r.Len()) }

// flightHeader is the first line of a dump: how much the ring saw and
// how much it had to drop, so a truncated post-mortem says so.
type flightHeader struct {
	FlightRecorder string `json:"flight_recorder"`
	Events         int    `json:"events"`
	Seen           uint64 `json:"seen"`
	Dropped        uint64 `json:"dropped"`
}

// DumpJSONL writes a header line followed by the retained events as
// newline-delimited JSON, oldest first — the same per-event encoding
// as the JSON tracer, so existing trace tooling reads dumps unchanged.
// reason labels why the dump happened (e.g. "timeout", "rto_storm").
// Output is byte-reproducible for equal event sequences.
func (r *FlightRecorder) DumpJSONL(w io.Writer, reason string) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(flightHeader{
		FlightRecorder: reason,
		Events:         r.Len(),
		Seen:           r.seen,
		Dropped:        r.Dropped(),
	}); err != nil {
		return err
	}
	if r.full {
		for _, ev := range r.buf[r.next:] {
			if err := enc.Encode(ev); err != nil {
				return err
			}
		}
	}
	for _, ev := range r.buf[:r.next] {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
