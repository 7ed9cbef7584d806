//go:build !linux

package live

import (
	"net"
	"sync"
)

// Builds without UDP_GRO read one datagram per call straight into a
// pool buffer (readOne): no reader draws a run buffer.

const groReads = false

type runBuf struct{}

var runBufs = sync.Pool{New: func() any { return new(runBuf) }}

func enableGRO(*net.UDPConn) {}

// readRun is never reached here: readOne calls it only with a run
// buffer, and no reader draws one.
func (d *Driver) readRun(s *pathSocket, c *net.UDPConn, _ *runBuf) (readStatus, error) {
	return d.readOne(s, c, nil)
}
