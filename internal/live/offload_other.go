//go:build !linux

package live

import (
	"net"
	"sync"
)

// Builds without segmentation offload read one datagram per call
// straight into a pool buffer (readOne), so no reader draws a run
// buffer, and write one datagram per call, so no writer groups a run.

const offload = false

type runBuf struct{}

var runBufs = sync.Pool{New: func() any { return new(runBuf) }}

func enableGRO(*net.UDPConn) {}

// readRun is never reached here: readOne calls it only with a run
// buffer, and no reader draws one.
func (d *Driver) readRun(s *pathSocket, c *net.UDPConn, _ *runBuf) (readStatus, error) {
	return d.readOne(s, c, nil)
}

// writeRun is never reached here: writeBatch calls it only for a
// grouping writer, and no writer groups.
func (d *Driver) writeRun(*pathSocket, int, int) bool { return false }
