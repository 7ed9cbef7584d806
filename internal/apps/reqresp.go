package apps

import (
	"time"

	"mpquic/internal/core"
	"mpquic/internal/sim"
	"mpquic/internal/wire"
)

// Request/response parameters of the §4.3 handover scenario.
const (
	// ReqRespMessageSize is the request and response payload size.
	ReqRespMessageSize = 750
	// ReqRespInterval is the client's request period.
	ReqRespInterval = 400 * time.Millisecond
)

// NewEchoServer attaches an echo responder to the listener: it answers
// every fixed-size request with a same-size response on the same
// stream, immediately (§4.3: "The server immediately replies to each
// request").
func NewEchoServer(l *core.Listener) {
	NewEchoServerWithPathsHook(l, nil)
}

// NewEchoServerWithPathsHook additionally invokes pathsHook whenever a
// PATHS frame arrives on an accepted connection — used by the §4.3
// experiment to verify that the client's potentially-failed signal
// reached the server.
func NewEchoServerWithPathsHook(l *core.Listener, pathsHook func()) {
	l.OnConnection(func(c *core.Conn) {
		if pathsHook != nil {
			c.OnPathsFrame(func(*wire.PathsFrame) { pathsHook() })
		}
		c.OnStreamOpen(func(s *core.Stream) {
			replied := false
			s.OnData(func() {
				for n := s.Readable(); n > 0; n = s.Readable() {
					s.Read(n)
				}
				if s.Finished() && !replied {
					replied = true
					s.WriteSynthetic(ReqRespMessageSize)
					s.Close()
				}
			})
		})
	})
}

// ReqRespSample is one completed request/response exchange.
type ReqRespSample struct {
	// SentAt is when the request was triggered.
	SentAt time.Duration
	// Delay is the time until the full response arrived — the y-axis
	// of the paper's Fig. 11.
	Delay time.Duration
}

// ReqRespClient fires one request every ReqRespInterval on a fresh
// stream and records the response delay of each.
type ReqRespClient struct {
	conn    *core.Conn
	clock   *sim.Clock
	samples []ReqRespSample
}

// NewReqRespClient starts the request train once the handshake
// completes, running for total duration.
func NewReqRespClient(conn *core.Conn, clock *sim.Clock, total time.Duration) *ReqRespClient {
	r := &ReqRespClient{conn: conn, clock: clock}
	conn.OnHandshakeComplete(func() {
		end := clock.Now().Add(total)
		r.scheduleNext(end)
	})
	return r
}

func (r *ReqRespClient) scheduleNext(end sim.Time) {
	if r.conn.Closed() || r.clock.Now() > end {
		return
	}
	r.fire()
	r.clock.After(ReqRespInterval, func() { r.scheduleNext(end) })
}

func (r *ReqRespClient) fire() {
	s := r.conn.OpenStream()
	sentAt := r.clock.Now().Duration()
	s.OnData(func() {
		for n := s.Readable(); n > 0; n = s.Readable() {
			s.Read(n)
		}
		if s.Finished() {
			r.samples = append(r.samples, ReqRespSample{
				SentAt: sentAt,
				Delay:  r.clock.Now().Duration() - sentAt,
			})
		}
	})
	s.WriteSynthetic(ReqRespMessageSize)
	s.Close()
}

// Samples returns the completed exchanges in send order.
func (r *ReqRespClient) Samples() []ReqRespSample { return r.samples }
