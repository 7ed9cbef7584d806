package live

import (
	"net"
	"net/netip"

	"mpquic/internal/wire"
)

// Batched egress. flush queues each datagram on its socket's batch;
// writeBatch writes a socket's batch in order, one write per message.
// Where the socket is the driver's own *net.UDPConn on Linux, each run
// of equal-size datagrams to one peer is one UDP_SEGMENT message
// (writeRun, offload_linux.go), which crosses the kernel's UDP stack
// once; every other datagram — all of them behind a SocketWrapper
// (faultnet, instrumentation) or on another GOOS — is one
// WriteToUDPAddrPort. Both ways count every datagram the same: a
// refused datagram goes through noteWriteErr and the rest of the batch
// is still sent. Order is kept per socket; each socket is its own path
// to the peer, so no order across sockets exists to keep.

const (
	egressBatchMax = 64    // datagrams in one batch
	gsoMaxBytes    = 65507 // payload bytes in one message: the IPv4 datagram limit
	gsoMaxSegs     = 64    // segments in one message on every kernel that has UDP_SEGMENT
)

// A batch never holds more datagrams than one message may carry.
const _ = uint(gsoMaxSegs - egressBatchMax)

// egressBatch is one socket's queued datagrams. The buffers stay the
// driver's until writeBatch returns them to the pool, after the write.
type egressBatch struct {
	n    int
	bufs [egressBatchMax][]byte
	to   [egressBatchMax]netip.AddrPort
}

// sockWriter is one socket's binding to its conn, made once per conn:
// a rebind makes a new one, which tries offload again.
type sockWriter struct {
	box *connBox
	uc  *net.UDPConn // the driver's own socket; nil behind a SocketWrapper
	gso bool         // group runs into UDP_SEGMENT messages
}

// bind points w at the conn in box. Only the driver's own socket on a
// build that offloads groups runs.
func (w *sockWriter) bind(box *connBox) {
	uc, _ := box.c.(*net.UDPConn)
	*w = sockWriter{box: box, uc: uc, gso: offload && uc != nil}
}

// queue appends one datagram to s's batch and writes the batch out
// once it is full.
//
//mpq:noescape
func (d *Driver) queue(s *pathSocket, b []byte, to netip.AddrPort) {
	q := &s.out
	q.bufs[q.n], q.to[q.n] = b, to
	q.n++
	if q.n == egressBatchMax {
		d.writeBatch(s)
	}
}

// writeBatch writes s's queued batch on the conn s holds now and
// recycles the buffers. The writer is rebound only when a rebind
// swapped the conn since its last write, so steady state allocates
// nothing; a new conn starts with a clean write-failure count. A run
// the kernel refuses is written again one datagram per write, so each
// of its datagrams is counted alone.
//
//mpq:noescape
func (d *Driver) writeBatch(s *pathSocket) {
	q := &s.out
	if q.n == 0 {
		return
	}
	box := s.conn.Load()
	if s.w.box != box {
		s.w.bind(box)
		s.writeFails = 0
	}
	for i := 0; i < q.n; {
		k := 1
		if s.w.gso {
			k = gsoRun(q, i)
		}
		if k > 1 && d.writeRun(s, i, k) {
			i += k
			continue
		}
		for end := i + k; i < end; i++ {
			_, err := box.c.WriteToUDPAddrPort(q.bufs[i], q.to[i])
			d.Stats.EgressWrites++
			if err != nil {
				d.noteWriteErr(s, err)
			} else {
				d.noteSent(s, len(q.bufs[i]))
			}
		}
	}
	for i := range q.bufs[:q.n] {
		wire.PutPacketBuf(q.bufs[i])
		q.bufs[i] = nil
	}
	q.n = 0
}

// gsoRun returns how many datagrams from q's i-th on make one
// UDP_SEGMENT message: those that follow it to the same peer at its
// size, then at most one shorter non-empty one, within gsoMaxBytes.
func gsoRun(q *egressBatch, i int) int {
	size := len(q.bufs[i])
	total := size
	j := i + 1
	for ; j < q.n; j++ {
		l := len(q.bufs[j])
		if q.to[j] != q.to[i] || l > size || l == 0 || total+l > gsoMaxBytes {
			break
		}
		total += l
		if l < size {
			return j + 1 - i
		}
	}
	return j - i
}

// noteSent counts one datagram the socket accepted.
//
//mpq:noescape
func (d *Driver) noteSent(s *pathSocket, n int) {
	d.Stats.PacketsOut++
	d.Stats.BytesOut += uint64(n)
	s.writeFails = 0
}
