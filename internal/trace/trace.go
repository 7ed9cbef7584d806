// Package trace provides structured event tracing for the protocol
// stacks — the reproduction's equivalent of qlog. A Tracer receives
// typed events (packets sent/received/acked/lost, congestion-window
// updates, path lifecycle, handshake milestones) and writers render
// them as human-readable text, newline-delimited JSON, or
// qlog-compatible JSONL (Qlog). Beyond event streams, the package
// holds the two observability primitives the experiment grids build
// on: the per-path time-series sampler (PathSample/SeriesRecorder) and
// the bounded post-mortem ring buffer (FlightRecorder).
//
// Tracing is opt-in per connection (Config.Tracer); a nil tracer costs
// one branch per event and zero allocations on the hot send/receive
// path (enforced by the allocation-budget tests in internal/perf).
//
// Determinism contract: every timestamp in this package is simulated
// time (time.Duration since the run's start) — wall clocks are banned
// repo-wide by the `mpq-vet walltime` analyzer — and every encoder
// writes through fixed-field structs in a fixed order. Two runs with
// equal seeds therefore produce byte-identical traces, series and
// dumps. The full event schema, the qlog mapping and the sampling
// semantics are documented in OBSERVABILITY.md.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// EventType classifies trace events.
type EventType string

// Event types emitted by the core engine.
const (
	PacketSent     EventType = "packet_sent"
	PacketReceived EventType = "packet_received"
	PacketAcked    EventType = "packet_acked"
	PacketLost     EventType = "packet_lost"
	CwndUpdated    EventType = "cwnd_updated"
	RTOFired       EventType = "rto_fired"
	PathOpened     EventType = "path_opened"
	PathFailed     EventType = "path_potentially_failed"
	PathRecovered  EventType = "path_recovered"
	HandshakeDone  EventType = "handshake_done"
	ConnClosed     EventType = "connection_closed"
)

// Event types emitted by the live driver's socket health ladder (see
// internal/live): a socket hit a persistent error and its paths were
// marked potentially failed; a rebind brought a fresh socket up on the
// same local address; the rebind budget ran out and the path is dead
// for the rest of the run.
const (
	SocketDegraded EventType = "socket_degraded"
	SocketRebound  EventType = "socket_rebound"
	SocketFailed   EventType = "socket_failed"
)

// Event types emitted by the network emulator (link lifecycle). These
// explain dynamic scenarios: a link going down/up and runtime
// reconfigurations (rate/delay/loss changes, loss-model or jitter
// installation) appear in the trace alongside the protocol's reaction.
const (
	LinkDown         EventType = "link_down"
	LinkUp           EventType = "link_up"
	LinkReconfigured EventType = "link_reconfigured"
)

// AllEventTypes returns every EventType this package defines, in
// declaration order. It is the registry the documentation linter
// (scripts/doclint.go) checks OBSERVABILITY.md against and the qlog
// tests enumerate; extend it when adding an event type.
func AllEventTypes() []EventType {
	return []EventType{
		PacketSent, PacketReceived, PacketAcked, PacketLost,
		CwndUpdated, RTOFired,
		PathOpened, PathFailed, PathRecovered,
		HandshakeDone, ConnClosed,
		SocketDegraded, SocketRebound, SocketFailed,
		LinkDown, LinkUp, LinkReconfigured,
	}
}

// Event is one trace record. Fields irrelevant to a given type are
// zero.
type Event struct {
	Time   time.Duration `json:"t"`
	Type   EventType     `json:"ev"`
	Path   uint8         `json:"path"`
	PN     uint64        `json:"pn,omitempty"`
	Size   int           `json:"size,omitempty"`
	Cwnd   int           `json:"cwnd,omitempty"`
	SRTT   time.Duration `json:"srtt,omitempty"`
	Detail string        `json:"detail,omitempty"`
}

// Tracer consumes events. Implementations must not mutate simulation
// state: a tracer is a pure observer, and attaching or detaching one
// must never change a run's schedule or results (the golden grid tests
// pin this — artifacts are byte-identical with tracing on or off).
type Tracer interface {
	Trace(ev Event)
}

// Text renders events as aligned text lines. Output is a pure
// function of the event stream (byte-identical across same-seed runs).
type Text struct {
	W io.Writer
}

// NewText builds a text tracer.
func NewText(w io.Writer) *Text { return &Text{W: w} }

// Trace implements Tracer.
func (t *Text) Trace(ev Event) {
	fmt.Fprintf(t.W, "%12.6f  %-24s path=%d", ev.Time.Seconds(), ev.Type, ev.Path)
	if ev.Type == PacketSent || ev.Type == PacketReceived || ev.Type == PacketAcked || ev.Type == PacketLost {
		fmt.Fprintf(t.W, " pn=%d size=%d", ev.PN, ev.Size)
	}
	if ev.Cwnd > 0 {
		fmt.Fprintf(t.W, " cwnd=%d", ev.Cwnd)
	}
	if ev.SRTT > 0 {
		fmt.Fprintf(t.W, " srtt=%v", ev.SRTT)
	}
	if ev.Detail != "" {
		fmt.Fprintf(t.W, " %s", ev.Detail)
	}
	fmt.Fprintln(t.W)
}

// JSON renders events as newline-delimited JSON (qlog-lite: this
// package's own Event encoding, one object per line). For the
// qvis-loadable qlog shape use Qlog instead. Output is a pure function
// of the event stream.
type JSON struct {
	enc *json.Encoder
}

// NewJSON builds a JSON tracer.
func NewJSON(w io.Writer) *JSON {
	return &JSON{enc: json.NewEncoder(w)}
}

// Trace implements Tracer.
func (j *JSON) Trace(ev Event) { _ = j.enc.Encode(ev) }

// Counter aggregates event counts — useful in tests and summaries.
// Counts and ByPath are maps; iterate them through sorted keys when
// rendering (see the `mpq-vet maporder` analyzer) to keep output
// deterministic.
type Counter struct {
	Counts map[EventType]int
	ByPath map[uint8]map[EventType]int
}

// NewCounter builds an empty counter.
func NewCounter() *Counter {
	return &Counter{
		Counts: make(map[EventType]int),
		ByPath: make(map[uint8]map[EventType]int),
	}
}

// Trace implements Tracer.
func (c *Counter) Trace(ev Event) {
	c.Counts[ev.Type]++
	m := c.ByPath[ev.Path]
	if m == nil {
		m = make(map[EventType]int)
		c.ByPath[ev.Path] = m
	}
	m[ev.Type]++
}

// Multi fans events out to several tracers.
type Multi []Tracer

// Trace implements Tracer.
func (m Multi) Trace(ev Event) {
	for _, t := range m {
		t.Trace(ev)
	}
}

// Filter passes only the listed event types to the inner tracer.
type Filter struct {
	Inner Tracer
	Types map[EventType]bool
}

// NewFilter builds a filter.
func NewFilter(inner Tracer, types ...EventType) *Filter {
	m := make(map[EventType]bool, len(types))
	for _, t := range types {
		m[t] = true
	}
	return &Filter{Inner: inner, Types: m}
}

// Trace implements Tracer.
func (f *Filter) Trace(ev Event) {
	if f.Types[ev.Type] {
		f.Inner.Trace(ev)
	}
}
