package live

import (
	"net"
	"net/netip"
	"unsafe"

	"mpquic/internal/netem"
)

// Batched egress. Send queues each datagram on its socket's batch, in
// the batch's run buffer (runbuf.go): core encodes most of them there
// already (LendRaw), so a batch's datagrams lie back to back, each
// run of them one slice. writeBatch writes a socket's batch in order,
// one write per message, when the batch is full and at the end of each
// step. Where the socket is the driver's own *net.UDPConn on Linux,
// each run of equal-size datagrams to one peer is one UDP_SEGMENT
// message (writeRun, offload_linux.go), which crosses the kernel's UDP
// stack once; every other datagram — all of them behind a SocketWrapper
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

// A batch never holds more datagrams than one message may carry, and a
// full batch of the longest datagrams fits its buffer.
const (
	_ = uint(gsoMaxSegs - egressBatchMax)
	_ = uint(runBufLen - egressBatchMax*netem.MTU)
)

// egressBatch is one socket's queued datagrams: datagram i is
// rb.b[end[i-1]:end[i]] (from 0 for the first), bound for to[i]. The
// buffer is the driver's from the first datagram of a Run or Flush to
// its end (releaseEgress).
type egressBatch struct {
	rb  *runBuf
	n   int
	end [egressBatchMax]int32
	to  [egressBatchMax]netip.AddrPort
}

// tail is where the next datagram goes in q.rb.b.
func (q *egressBatch) tail() int {
	if q.n == 0 {
		return 0
	}
	return int(q.end[q.n-1])
}

// dgram returns datagram i.
func (q *egressBatch) dgram(i int) []byte {
	start := int32(0)
	if i > 0 {
		start = q.end[i-1]
	}
	return q.rb.b[start:q.end[i]]
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

// queue appends one datagram to s's batch — in place when it was
// encoded into the bytes LendRaw lent, copied in otherwise, the
// caller's bytes left as they were — and writes the batch out once it
// is full: 64 datagrams, or no room left for a full one.
//
//mpq:noescape
func (d *Driver) queue(s *pathSocket, b []byte, to netip.AddrPort) {
	q := &s.out
	if q.rb == nil {
		q.rb = getRunBuf()
	}
	at := q.tail()
	if len(b) > len(q.rb.b)-at {
		// Only a datagram longer than any the stack sends gets here.
		d.writeBatch(s)
		at = 0
		if len(b) > len(q.rb.b) {
			// Longer than a UDP datagram: the kernel would refuse it.
			d.Stats.EgressWrites++
			d.Stats.WriteErrors++
			return
		}
	}
	if unsafe.SliceData(b) != &q.rb.b[at] {
		copy(q.rb.b[at:], b)
	}
	q.end[q.n], q.to[q.n] = int32(at+len(b)), to
	q.n++
	if q.n == egressBatchMax || len(q.rb.b)-q.tail() < netem.MTU {
		d.writeBatch(s)
	}
}

// releaseEgress gives every empty batch's buffer back to the free
// list: Run does when it returns, Flush after its writes.
//
//mpq:noescape
func (d *Driver) releaseEgress() {
	for _, s := range d.socks {
		if q := &s.out; q.rb != nil && q.n == 0 {
			putRunBuf(q.rb)
			q.rb = nil
		}
	}
}

// writeBatch writes s's queued batch on the conn s holds now and
// empties it. The writer is rebound only when a rebind swapped the
// conn since its last write, so steady state allocates nothing; a new
// conn starts with a clean write-failure count. A run the kernel
// refuses is written again one datagram per write, so each of its
// datagrams is counted alone.
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
			b := q.dgram(i)
			_, err := box.c.WriteToUDPAddrPort(b, q.to[i])
			d.Stats.EgressWrites++
			if err != nil {
				d.noteWriteErr(s, err)
			} else {
				d.noteSent(s, len(b))
			}
		}
	}
	q.n = 0
}

// gsoRun returns how many datagrams from q's i-th on make one
// UDP_SEGMENT message: those that follow it to the same peer at its
// size, then at most one shorter non-empty one, within gsoMaxBytes.
func gsoRun(q *egressBatch, i int) int {
	size := len(q.dgram(i))
	total := size
	j := i + 1
	for ; j < q.n; j++ {
		l := len(q.dgram(j))
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
