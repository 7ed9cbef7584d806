package live

import (
	"net/netip"

	"mpquic/internal/wire"
)

// Batched egress. flush hands each run of consecutive datagrams from
// one socket to writeBatch, which writes the run with as few system
// calls as the platform allows: one sendmmsg(2) per run where the
// socket is a plain *net.UDPConn on a build that has the call
// (egress_linux.go), one WriteToUDPAddrPort per datagram everywhere
// else — a SocketWrapper's conn (faultnet, instrumentation) or another
// GOOS/GOARCH (egress_other.go). Both ways count every datagram the
// same: a refused datagram goes through noteWriteErr and the rest of
// the run is still sent.

// egressBatchMax caps one run: the messages one sendmmsg(2) carries.
const egressBatchMax = 64

// egressBatch is flush's scratch: the run queued for the next write.
// The buffers stay the driver's until writeBatch returns them to the
// pool, after the write.
type egressBatch struct {
	sock *pathSocket
	box  *connBox // the socket's conn when the run began
	n    int
	bufs [egressBatchMax][]byte
	to   [egressBatchMax]netip.AddrPort
	sys  mmsgBatch // the sendmmsg(2) vector; empty where unsupported
}

// queue appends one datagram to the run, writing the run out first
// when b starts a new one (another socket or conn) or the run is full.
//
//mpq:noescape
func (d *Driver) queue(s *pathSocket, box *connBox, b []byte, to netip.AddrPort) {
	q := &d.out
	if q.n > 0 && (q.sock != s || q.box != box || q.n == egressBatchMax) {
		d.writeBatch()
	}
	q.sock, q.box = s, box
	q.bufs[q.n], q.to[q.n] = b, to
	q.n++
}

// writeBatch writes the queued run and recycles its buffers. The
// socket's writer is rebound only when a rebind swapped the conn since
// its last run, so steady state allocates nothing.
//
//mpq:noescape
func (d *Driver) writeBatch() {
	q := &d.out
	if q.n == 0 {
		return
	}
	w := &d.writers[q.sock.idx]
	if w.box != q.box {
		w.bind(q.box, &q.sys)
	}
	// sendBatch settles a prefix of the run (all of it, unless the
	// socket failed as a whole); the per-datagram writes take the rest.
	i := d.sendBatch(w)
	for ; i < q.n; i++ {
		_, err := q.box.c.WriteToUDPAddrPort(q.bufs[i], q.to[i])
		d.Stats.EgressWrites++
		if err != nil {
			d.noteWriteErr(q.sock, err)
		} else {
			d.noteSent(q.sock, len(q.bufs[i]))
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
	d.writeFails[s.idx] = 0
}
