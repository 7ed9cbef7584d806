package live

import (
	"net/netip"

	"mpquic/internal/wire"
)

// Batched egress. flush queues each datagram on its socket's batch;
// writeBatch writes a socket's batch with as few system calls as the
// platform allows: one sendmmsg(2) per batch where the socket is a
// plain *net.UDPConn on a build that has the call, with each run of
// equal-size datagrams to one peer offloaded as one message
// (egress_linux.go),
// one WriteToUDPAddrPort per datagram everywhere else — a
// SocketWrapper's conn (faultnet, instrumentation) or another
// GOOS/GOARCH (egress_other.go). Both ways count every datagram the
// same: a refused datagram goes through noteWriteErr and the rest of
// the batch is still sent. Order is kept per socket; each socket is
// its own path to the peer, so no order across sockets exists to keep.

// egressBatchMax caps one batch: the datagrams one sendmmsg(2) carries.
const egressBatchMax = 64

// egressBatch is one socket's queued datagrams. The buffers stay the
// driver's until writeBatch returns them to the pool, after the write.
type egressBatch struct {
	n    int
	bufs [egressBatchMax][]byte
	to   [egressBatchMax]netip.AddrPort
	sys  mmsgBatch // the sendmmsg(2) vector; empty where unsupported
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
// nothing; a new conn starts with a clean write-failure count.
//
//mpq:noescape
func (d *Driver) writeBatch(s *pathSocket) {
	q := &s.out
	if q.n == 0 {
		return
	}
	box := s.conn.Load()
	if s.w.box != box {
		s.w.bind(box, &q.sys)
		s.writeFails = 0
	}
	// sendBatch settles a prefix of the batch (all of it, unless the
	// socket failed as a whole); the per-datagram writes take the rest.
	i := d.sendBatch(s)
	for ; i < q.n; i++ {
		_, err := box.c.WriteToUDPAddrPort(q.bufs[i], q.to[i])
		d.Stats.EgressWrites++
		if err != nil {
			d.noteWriteErr(s, err)
		} else {
			d.noteSent(s, len(q.bufs[i]))
		}
	}
	for i := range q.bufs[:q.n] {
		wire.PutPacketBuf(q.bufs[i])
		q.bufs[i] = nil
	}
	q.n = 0
}

// noteSent counts one datagram the socket accepted.
//
//mpq:noescape
func (d *Driver) noteSent(s *pathSocket, n int) {
	d.Stats.PacketsOut++
	d.Stats.BytesOut += uint64(n)
	s.writeFails = 0
}
