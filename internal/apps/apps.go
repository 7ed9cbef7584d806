// Package apps provides the benchmark applications from the paper's
// evaluation: an https-like GET file transfer (§4.1, §4.2) and the
// request/response traffic of the handover scenario (§4.3). Both run
// over the core (MP)QUIC engine; sibling implementations for the
// (MP)TCP baselines live in the tcpsim/mptcpsim packages.
package apps

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"mpquic/internal/core"
)

// GetServer serves synthetic files: a client writes "GET <bytes>" on a
// stream, the server responds with that many bytes on the same stream.
type GetServer struct {
	listener *core.Listener
}

// NewGetServer attaches a GET responder to every connection the
// listener accepts.
func NewGetServer(l *core.Listener) *GetServer {
	g := &GetServer{listener: l}
	l.OnConnection(func(c *core.Conn) {
		c.OnStreamOpen(func(s *core.Stream) { g.serveStream(s) })
	})
	return g
}

func (g *GetServer) serveStream(s *core.Stream) {
	var req strings.Builder
	served := false
	s.OnData(func() {
		if n := s.Readable(); n > 0 {
			_, data := s.Read(n)
			req.Write(data)
		}
		if served || !s.FinReceived() || !s.Finished() {
			return
		}
		served = true
		size, err := ParseGet(req.String())
		if err != nil {
			return
		}
		s.WriteSynthetic(size)
		s.Close()
	})
}

// ParseGet extracts the requested size from "GET <bytes>".
func ParseGet(req string) (uint64, error) {
	fields := strings.Fields(req)
	if len(fields) != 2 || fields[0] != "GET" {
		return 0, fmt.Errorf("apps: bad request %q", req)
	}
	return strconv.ParseUint(fields[1], 10, 62)
}

// FormatGet renders a request line.
func FormatGet(size uint64) string { return fmt.Sprintf("GET %d", size) }

// GetResult reports one finished download.
type GetResult struct {
	// Size is the requested file size in bytes.
	Size uint64
	// Start is the virtual time Dial was called (the paper measures
	// "from the transmission of the first connection packet").
	Start time.Duration
	// Finish is the virtual time the last byte was consumed.
	Finish time.Duration
	// HandshakeDone is when the client completed the handshake.
	HandshakeDone time.Duration
}

// Elapsed returns the client-perceived download time.
func (r GetResult) Elapsed() time.Duration { return r.Finish - r.Start }

// GoodputBps returns application goodput in bits per second.
func (r GetResult) GoodputBps() float64 {
	el := r.Elapsed().Seconds()
	if el <= 0 {
		return 0
	}
	return float64(r.Size) * 8 / el
}

// GetClient downloads one file over a fresh stream as soon as the
// handshake completes.
type GetClient struct {
	conn   *core.Conn
	size   uint64
	start  time.Duration
	now    func() time.Duration
	result *GetResult
	onDone func(GetResult)
}

// NewGetClient arms a download of size bytes on conn. now must be the
// simulation time source; onDone fires at completion (may be nil).
func NewGetClient(conn *core.Conn, size uint64, now func() time.Duration, onDone func(GetResult)) *GetClient {
	g := &GetClient{conn: conn, size: size, start: now(), now: now, onDone: onDone}
	conn.OnHandshakeComplete(func() { g.sendRequest() })
	return g
}

func (g *GetClient) sendRequest() {
	s := g.conn.OpenStream()
	hsDone := g.now()
	s.OnData(func() {
		if n := s.Readable(); n > 0 {
			s.Read(n) // consume to keep flow-control credit moving
		}
		if s.Finished() && g.result == nil {
			r := GetResult{Size: g.size, Start: g.start, Finish: g.now(), HandshakeDone: hsDone}
			g.result = &r
			if g.onDone != nil {
				g.onDone(r)
			}
		}
	})
	s.Write([]byte(FormatGet(g.size)))
	s.Close()
}

// Done reports completion.
func (g *GetClient) Done() bool { return g.result != nil }

// ErrTimeout is how a GET ends when its driver's deadline passes with
// the transfer incomplete and the connection still up (e.g. every path
// died mid-run). Both backends return it.
var ErrTimeout = errors.New("mpquic: transfer deadline exceeded")

// AbortError is how a GET ends when the connection terminates before
// the transfer completes: the peer closed or aborted it, an idle
// timeout fired, or a protocol error tore it down. Err carries the
// connection's close reason; match with errors.As on either backend.
type AbortError struct{ Err error }

func (e *AbortError) Error() string {
	if e.Err == nil {
		return "mpquic: connection aborted"
	}
	return "mpquic: connection aborted: " + e.Err.Error()
}

// Unwrap exposes the close reason to errors.Is / errors.As chains.
func (e *AbortError) Unwrap() error { return e.Err }

// Outcome reports how the GET ended, for a driver (virtual clock or
// live loop) that has stopped driving it: the result if it finished,
// *AbortError if the connection closed first, ErrTimeout otherwise.
func (g *GetClient) Outcome() (GetResult, error) {
	if g.result != nil {
		return *g.result, nil
	}
	if g.conn.Closed() {
		cerr := g.conn.Err()
		if cerr == nil {
			cerr = errors.New("connection closed")
		}
		return GetResult{}, &AbortError{Err: cerr}
	}
	return GetResult{}, ErrTimeout
}
