package trace

import (
	"encoding/json"
	"io"
	"time"
)

// PathSample is one point of the per-path time series: a snapshot of a
// path's (or TCP flow's, or MPTCP subflow's) sender-side transport
// state at a simulated instant. The field set covers the quantities
// the paper's protocol plots are built from: congestion window,
// smoothed RTT, bytes in flight, and cumulative bytes sent/acked.
type PathSample struct {
	// T is the simulated time of the snapshot (never wall time).
	T time.Duration `json:"t"`
	// Path identifies the path (QUIC), subflow (MPTCP) or flow (TCP,
	// always 0).
	Path uint8 `json:"path"`
	// Cwnd is the congestion window in bytes.
	Cwnd int `json:"cwnd"`
	// SRTT is the smoothed RTT estimate; 0 before the first sample.
	SRTT time.Duration `json:"srtt"`
	// InFlight is the retransmittable bytes outstanding on the path.
	InFlight int `json:"in_flight"`
	// BytesSent is the cumulative bytes sent on the path.
	BytesSent uint64 `json:"bytes_sent"`
	// BytesAcked is the cumulative bytes acknowledged on the path.
	BytesAcked uint64 `json:"bytes_acked"`
	// SlowStart reports whether the congestion controller was in slow
	// start at the snapshot.
	SlowStart bool `json:"slow_start"`
}

// SeriesRecorder accumulates PathSamples in arrival order. The
// transport stacks expose SampleInto hooks (core.Conn, tcpsim.Conn,
// mptcpsim.Conn) that append one sample per path; a caller-owned
// sim-clock timer drives the cadence, so the series is exactly as
// deterministic as the simulation itself: same seed, same cadence —
// byte-identical samples.
//
// The zero value is ready to use.
type SeriesRecorder struct {
	// Samples holds every recorded point, in recording order
	// (time-ordered, path-minor within one sampling tick).
	Samples []PathSample
}

// NewSeriesRecorder returns an empty recorder.
func NewSeriesRecorder() *SeriesRecorder { return &SeriesRecorder{} }

// Add appends one sample.
func (r *SeriesRecorder) Add(s PathSample) { r.Samples = append(r.Samples, s) }

// EncodeJSONL writes the samples as newline-delimited JSON, one sample
// per line, in recording order. Output is byte-reproducible for equal
// sample sequences.
func (r *SeriesRecorder) EncodeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.Samples {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
