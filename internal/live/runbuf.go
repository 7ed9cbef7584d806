package live

import (
	"net/netip"
	"sync/atomic"

	"mpquic/internal/netem"
)

// Run buffers: the one kind of buffer the driver moves bytes in, both
// directions.
//
// Ingress. Each socket owns runBufsPerSocket of them. Its reader reads
// into the free tail of the one it holds — a UDP_GRO run of datagrams
// or a single datagram per read — notes the read in the buffer's reads
// table and hands the loop that read with one channel send. The loop
// decodes the read's datagrams where they lie and hands the read back;
// a buffer goes back to its socket once the reader has moved on and
// every read in it has come back (refs). When none is free, the reader
// waits and the kernel's socket buffer holds the backlog. Small reads
// pack: a 128 KiB buffer takes reads for as long as a whole 64 KiB run
// still fits behind them, so one holds two full runs or dozens of
// single datagrams, and a driver's queued bytes stay within its
// sockets' buffers (two sockets: 1.25 MiB).
//
// Egress. Each socket's batch (egress.go) lives in one run buffer: the
// driver lends core the buffer's free tail to encode a packet into
// (LendRaw), so a batch's runs lie back to back and a UDP_SEGMENT
// message is a slice of the buffer, written with no copy.
//
// Buffers come from runBufFree, a free list the collector does not
// empty, so a fresh driver per transfer allocates none: a driver draws
// its sockets' ingress buffers at NewDriver and gives them back at
// Close, and an egress buffer for as long as Run or a Flush needs it.

const (
	maxRun           = 1 << 16 // the window of a run read: the largest UDP payload
	runBufLen        = 2 * maxRun
	runBufReads      = 256 // reads one buffer can hold
	runBufsPerSocket = 5
	runBufFreeMax    = 32 // buffers the process keeps between drivers: a two-socket server and client hold 24
)

// runBuf is a buffer for runs: room for reads or for one socket's
// egress batch, and for the control message that names a segment size
// (the leading field aligns it for a cmsghdr).
type runBuf struct {
	_   [0]uintptr
	oob [64]byte
	b   [runBufLen]byte
	// reads[:k] describe the reads in b, k being the reader's count.
	reads [runBufReads]runRead
	// refs counts the reads handed to the loop and not yet back, plus
	// one while the reader holds the buffer.
	refs atomic.Int32
}

// runRead is one read in a run buffer: the sender and the bytes
// b[off:off+n], cut into seg-byte datagrams (the last may be shorter).
// n == 0 is one empty datagram. The reader writes it before the
// hand-off; the loop only reads it, and injects the read whole.
type runRead struct {
	from        netip.AddrPort
	off, n, seg int32
}

// datagrams counts the datagrams in r.
func (r *runRead) datagrams() int {
	if r.n == 0 || r.seg <= 0 {
		return 1
	}
	return int((r.n + r.seg - 1) / r.seg)
}

// cut normalises what a read returned: n bytes cut into seg-byte
// datagrams, seg 0 for junk. Junk is one empty datagram; a read of one
// datagram (seg ≥ n) keeps at most netem.MTU bytes of it, the longest
// datagram the simulator carries.
func cut(n, seg int) (int, int) {
	switch {
	case seg == 0:
		return 0, 0
	case seg >= n:
		n = min(n, netem.MTU)
		return n, n
	default:
		return n, seg
	}
}

// runBufFree is the process's free list of run buffers. A channel, so
// that the run loop takes and returns egress buffers without a lock.
var runBufFree = make(chan *runBuf, runBufFreeMax)

// getRunBuf takes a buffer from the free list, or a new one when it is
// empty. Kept out of line: the allocation is its own, not its caller's.
//
//go:noinline
func getRunBuf() *runBuf {
	select {
	case rb := <-runBufFree:
		return rb
	default:
		return new(runBuf)
	}
}

// putRunBuf gives a buffer back to the free list, or to the collector
// when the list is full.
func putRunBuf(rb *runBuf) {
	select {
	case runBufFree <- rb:
	default:
	}
}

// runReader is a reader goroutine's hold on the buffer it reads into.
type runReader struct {
	rb  *runBuf
	off int // where the next read lands in rb.b
	k   int // reads in rb.reads
}

// room returns the buffer the next read of up to window bytes lands in
// at r.off: r's own, read again from its start once the loop has handed
// back every read in it, or else the next of s's free buffers, which it
// waits for. It returns nil when the driver closes first.
func (d *Driver) room(s *pathSocket, r *runReader, window int) *runBuf {
	if r.rb != nil && r.rb.refs.Load() == 1 {
		r.off, r.k = 0, 0
	}
	if r.rb != nil && (r.off+window > len(r.rb.b) || r.k == len(r.rb.reads)) {
		d.release(s, r.rb)
		r.rb = nil
	}
	if r.rb == nil {
		select {
		case rb := <-s.free:
			rb.refs.Store(1)
			r.rb, r.off, r.k = rb, 0, 0
		case <-d.closeCh:
			return nil
		}
	}
	return r.rb
}

// release drops one reference to rb, a buffer of s; the last one gives
// it back to s. s.free has room for every buffer s owns, so the send
// never waits.
//
//mpq:noescape
func (d *Driver) release(s *pathSocket, rb *runBuf) {
	if rb.refs.Add(-1) == 0 {
		select {
		case s.free <- rb:
		default:
		}
	}
}

// takeRunBufs gives every socket its ingress buffers.
func (d *Driver) takeRunBufs() {
	for _, s := range d.socks {
		s.free = make(chan *runBuf, runBufsPerSocket)
		for range runBufsPerSocket {
			select {
			case s.free <- getRunBuf():
			default:
			}
		}
	}
}

// reclaimRunBufs gives the sockets' ingress buffers back to the free
// list once the readers have exited: those free and those whose reads
// wait in recvCh. A buffer a running loop still holds goes back to its
// socket when the loop is done with it, and from there to the
// collector with the driver.
func (d *Driver) reclaimRunBufs() {
	for drained := false; !drained; {
		select {
		case p := <-d.recvCh:
			if p.rb != nil {
				d.release(p.s, p.rb)
			}
		default:
			drained = true
		}
	}
	for _, s := range d.socks {
		for drained := false; !drained; {
			select {
			case rb := <-s.free:
				putRunBuf(rb)
			default:
				drained = true
			}
		}
	}
}
