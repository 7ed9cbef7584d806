package trace

import (
	"encoding/json"
	"io"
	"time"
)

// Qlog renders events as qlog-compatible newline-delimited JSON: one
// JSON object per line, the first line a qlog trace header, every
// following line one event in the qlog draft shape
// {"time": <ms>, "name": "<category:event>", "data": {...}}.
//
// The mapping from this package's event vocabulary onto qlog event
// names (transport:packet_sent, recovery:metrics_updated,
// connectivity:path_status_updated, ...) is documented in
// OBSERVABILITY.md; multipath identifiers ride in data.path_id as in
// the qlog multipath extension draft.
//
// Determinism contract: output is a pure function of the event stream.
// Timestamps are the simulated clock carried in Event.Time (never wall
// time — the encoder passes `mpq-vet walltime`), encoding goes through
// fixed-field structs (no map iteration), and the header is emitted
// eagerly at construction, so same-seed runs produce byte-identical
// qlog files.
type Qlog struct {
	enc *json.Encoder
	err error
}

// qlog headers and records. All structs below have a fixed field
// order, which is what makes the output byte-reproducible.

type qlogHeader struct {
	QlogVersion string        `json:"qlog_version"`
	QlogFormat  string        `json:"qlog_format"`
	Title       string        `json:"title,omitempty"`
	Trace       qlogTraceInfo `json:"trace"`
}

type qlogTraceInfo struct {
	VantagePoint qlogVantagePoint `json:"vantage_point"`
	CommonFields qlogCommonFields `json:"common_fields"`
}

type qlogVantagePoint struct {
	Type string `json:"type"`
}

type qlogCommonFields struct {
	ReferenceTime float64 `json:"reference_time"`
	TimeFormat    string  `json:"time_format"`
}

type qlogRecord struct {
	Time float64 `json:"time"`
	Name string  `json:"name"`
	Data any     `json:"data,omitempty"`
}

type qlogPacketHeader struct {
	PacketType   string `json:"packet_type"`
	PacketNumber uint64 `json:"packet_number"`
}

type qlogRawInfo struct {
	Length int `json:"length"`
}

// qlogPacketData shapes transport:packet_sent/packet_received and
// recovery:packet_lost.
type qlogPacketData struct {
	Header qlogPacketHeader `json:"header"`
	Raw    *qlogRawInfo     `json:"raw,omitempty"`
	PathID uint8            `json:"path_id"`
}

// qlogAckedData shapes recovery:packet_acked.
type qlogAckedData struct {
	PacketNumber uint64   `json:"packet_number"`
	PathID       uint8    `json:"path_id"`
	SmoothedRTT  *float64 `json:"smoothed_rtt,omitempty"`
}

// qlogMetricsData shapes recovery:metrics_updated.
type qlogMetricsData struct {
	PathID           uint8    `json:"path_id"`
	CongestionWindow int      `json:"congestion_window,omitempty"`
	SmoothedRTT      *float64 `json:"smoothed_rtt,omitempty"`
}

// qlogTimerData shapes recovery:loss_timer_updated (RTO expiry).
type qlogTimerData struct {
	EventType        string `json:"event_type"`
	TimerType        string `json:"timer_type"`
	PathID           uint8  `json:"path_id"`
	CongestionWindow int    `json:"congestion_window,omitempty"`
}

// qlogPathData shapes connectivity:path_assigned and
// connectivity:path_status_updated.
type qlogPathData struct {
	PathID     uint8  `json:"path_id"`
	PathStatus string `json:"path_status,omitempty"`
	Endpoints  string `json:"endpoints,omitempty"`
}

// qlogConnStateData shapes connectivity:connection_state_updated.
type qlogConnStateData struct {
	New     string `json:"new"`
	Trigger string `json:"trigger,omitempty"`
}

// qlogLinkData shapes the netem:link_* extension events (the emulator's
// link lifecycle has no standard qlog vocabulary; custom categories are
// explicitly allowed by the qlog draft).
type qlogLinkData struct {
	PathID uint8  `json:"path_id"`
	Detail string `json:"detail,omitempty"`
}

// NewQlog builds a qlog tracer writing to w. vantage names the traced
// endpoint ("client" or "server"; anything else is recorded verbatim).
// The trace header line is written immediately, before any event.
func NewQlog(w io.Writer, vantage string) *Qlog {
	q := &Qlog{enc: json.NewEncoder(w)}
	q.emit(qlogHeader{
		QlogVersion: "0.3",
		QlogFormat:  "JSON-SEQ",
		Title:       "mpquic simulation trace",
		Trace: qlogTraceInfo{
			VantagePoint: qlogVantagePoint{Type: vantage},
			CommonFields: qlogCommonFields{ReferenceTime: 0, TimeFormat: "relative"},
		},
	})
	return q
}

// Err returns the first write error, if any. Trace itself never fails;
// callers that need durability check Err after the run.
func (q *Qlog) Err() error { return q.err }

func (q *Qlog) emit(v any) {
	if q.err != nil {
		return
	}
	q.err = q.enc.Encode(v)
}

// ms renders a duration as the float milliseconds qlog expects.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msPtr is ms for optional fields: nil when the duration is zero (no
// sample yet), so absent values are omitted instead of encoded as 0.
func msPtr(d time.Duration) *float64 {
	if d == 0 {
		return nil
	}
	v := ms(d)
	return &v
}

// QlogEventName maps one trace EventType onto its qlog event name.
// Unknown types map to "mpquic:<type>" so third-party events survive a
// round trip instead of being dropped.
func QlogEventName(t EventType) string {
	switch t {
	case PacketSent:
		return "transport:packet_sent"
	case PacketReceived:
		return "transport:packet_received"
	case PacketAcked:
		return "recovery:packet_acked"
	case PacketLost:
		return "recovery:packet_lost"
	case CwndUpdated:
		return "recovery:metrics_updated"
	case RTOFired:
		return "recovery:loss_timer_updated"
	case PathOpened:
		return "connectivity:path_assigned"
	case PathFailed, PathRecovered:
		return "connectivity:path_status_updated"
	case HandshakeDone, ConnClosed:
		return "connectivity:connection_state_updated"
	case SocketDegraded:
		return "live:socket_degraded"
	case SocketRebound:
		return "live:socket_rebound"
	case SocketFailed:
		return "live:socket_failed"
	case LinkDown:
		return "netem:link_down"
	case LinkUp:
		return "netem:link_up"
	case LinkReconfigured:
		return "netem:link_reconfigured"
	default:
		return "mpquic:" + string(t)
	}
}

// Trace implements Tracer.
func (q *Qlog) Trace(ev Event) {
	rec := qlogRecord{Time: ms(ev.Time), Name: QlogEventName(ev.Type)}
	switch ev.Type {
	case PacketSent, PacketReceived, PacketLost:
		data := qlogPacketData{
			Header: qlogPacketHeader{PacketType: "1RTT", PacketNumber: ev.PN},
			PathID: ev.Path,
		}
		if ev.Size > 0 {
			data.Raw = &qlogRawInfo{Length: ev.Size}
		}
		rec.Data = data
	case PacketAcked:
		rec.Data = qlogAckedData{PacketNumber: ev.PN, PathID: ev.Path, SmoothedRTT: msPtr(ev.SRTT)}
	case CwndUpdated:
		rec.Data = qlogMetricsData{PathID: ev.Path, CongestionWindow: ev.Cwnd, SmoothedRTT: msPtr(ev.SRTT)}
	case RTOFired:
		rec.Data = qlogTimerData{EventType: "expired", TimerType: "pto", PathID: ev.Path, CongestionWindow: ev.Cwnd}
	case PathOpened:
		rec.Data = qlogPathData{PathID: ev.Path, PathStatus: "available", Endpoints: ev.Detail}
	case PathFailed:
		rec.Data = qlogPathData{PathID: ev.Path, PathStatus: "potentially_failed"}
	case PathRecovered:
		rec.Data = qlogPathData{PathID: ev.Path, PathStatus: "available"}
	case HandshakeDone:
		rec.Data = qlogConnStateData{New: "handshake_complete"}
	case ConnClosed:
		rec.Data = qlogConnStateData{New: "closed", Trigger: ev.Detail}
	case SocketDegraded:
		rec.Data = qlogPathData{PathID: ev.Path, PathStatus: "degraded", Endpoints: ev.Detail}
	case SocketRebound:
		rec.Data = qlogPathData{PathID: ev.Path, PathStatus: "available", Endpoints: ev.Detail}
	case SocketFailed:
		rec.Data = qlogPathData{PathID: ev.Path, PathStatus: "failed", Endpoints: ev.Detail}
	case LinkDown, LinkUp, LinkReconfigured:
		rec.Data = qlogLinkData{PathID: ev.Path, Detail: ev.Detail}
	default:
		rec.Data = qlogLinkData{PathID: ev.Path, Detail: ev.Detail}
	}
	q.emit(rec)
}
