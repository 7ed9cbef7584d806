package tcpsim

import "time"

// GetRequestSize models the size of the "GET <n>" request in bytes.
const GetRequestSize = 100

// GetConn is what the GET application needs of a connection; TCP and
// MPTCP connections both provide it.
type GetConn interface {
	OnEstablished(func())
	OnData(func())
	Readable() uint64
	Read(n uint64) uint64
	Finished() bool
	WriteSynthetic(n uint64)
	CloseWrite()
}

// GetResult reports one finished download over the TCP family (the
// counterpart of apps.GetResult, which needs the QUIC engine).
type GetResult struct {
	Size   uint64
	Start  time.Duration
	Finish time.Duration
}

// Elapsed is the client-perceived download time.
func (r GetResult) Elapsed() time.Duration { return r.Finish - r.Start }

// GoodputBps is application goodput in bits per second.
func (r GetResult) GoodputBps() float64 {
	el := r.Elapsed().Seconds()
	if el <= 0 {
		return 0
	}
	return float64(r.Size) * 8 / el
}

// drainUntilFinished consumes c's incoming stream as it arrives and
// calls done once, when the peer's FIN has been consumed too.
func drainUntilFinished(c GetConn, done func()) {
	finished := false
	c.OnData(func() {
		if n := c.Readable(); n > 0 {
			c.Read(n)
		}
		if c.Finished() && !finished {
			finished = true
			done()
		}
	})
}

// ServeGet attaches a GET responder to a TCP or MPTCP listener: when a
// connection's incoming stream finishes (request received), the server
// writes size response bytes and closes its side. The response size is
// provided by the harness (the emulated request carries no literal
// text).
func ServeGet[C GetConn](l interface{ OnConnection(func(C)) }, size uint64) {
	l.OnConnection(func(c C) {
		drainUntilFinished(c, func() {
			c.WriteSynthetic(size)
			c.CloseWrite()
		})
	})
}

// GetOverTCP arms a client-side download on a TCP or MPTCP connection:
// the request goes out as soon as the secure handshake completes;
// onDone fires when the last response byte is consumed.
func GetOverTCP(c GetConn, size uint64, now func() time.Duration, onDone func(GetResult)) {
	start := now()
	c.OnEstablished(func() {
		c.WriteSynthetic(GetRequestSize)
		c.CloseWrite()
	})
	drainUntilFinished(c, func() {
		if onDone != nil {
			onDone(GetResult{Size: size, Start: start, Finish: now()})
		}
	})
}
