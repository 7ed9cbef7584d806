//go:build !linux

package live

import (
	"net"
	"net/netip"
)

// Builds without segmentation offload read one datagram per call into
// a run buffer (readOne), so no reader reads a run, and write one
// datagram per call, so no writer groups a run.

const offload = false

func enableGRO(*net.UDPConn) {}

// readRun is never reached here: readOne calls it only for a socket
// that reads runs, and none does.
func readRun(c *net.UDPConn, _ *runBuf, b []byte) (n, seg int, from netip.AddrPort, err error) {
	n, from, err = c.ReadFromUDPAddrPort(b)
	return n, n, from, err
}

// writeRun is never reached here: writeBatch calls it only for a
// grouping writer, and no writer groups.
func (d *Driver) writeRun(*pathSocket, int, int) bool { return false }
