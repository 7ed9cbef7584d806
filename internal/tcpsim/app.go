package tcpsim

import (
	"time"

	"mpquic/internal/apps"
)

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
// onDone fires when the last response byte is consumed, with the
// result schema the QUIC stacks report too.
func GetOverTCP(c GetConn, size uint64, now func() time.Duration, onDone func(apps.GetResult)) {
	res := apps.GetResult{Size: size, Start: now()}
	c.OnEstablished(func() {
		res.HandshakeDone = now()
		c.WriteSynthetic(GetRequestSize)
		c.CloseWrite()
	})
	drainUntilFinished(c, func() {
		if onDone != nil {
			res.Finish = now()
			onDone(res)
		}
	})
}
