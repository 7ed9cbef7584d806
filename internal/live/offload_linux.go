package live

import (
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"sync"
	"syscall"
	"unsafe"

	"mpquic/internal/wire"
)

// Segmentation offload, both directions, on the driver's own
// *net.UDPConn (a socket behind a SocketWrapper takes the plain path).
//
// Send (UDP_SEGMENT, Linux 4.18+): each run of consecutive datagrams to
// one peer and of one size — the last may be shorter — is copied into
// one buffer and written as one message with a cmsg naming the segment
// size. The kernel cuts it back into those datagrams after one trip
// through its UDP stack instead of one trip each. EIO, EINVAL or
// EMSGSIZE on such a write means the socket cannot offload, and its
// writer stops grouping.
//
// Receive (UDP_GRO, Linux 5.0+): a socket with UDP_GRO set may hand its
// reader a run of datagrams from one sender in one read, with a cmsg
// naming the segment size: every segment but the last has exactly that
// size. Over loopback this is what a UDP_SEGMENT sender's runs stay, so
// a run crosses the receiving UDP stack once as well.

const (
	udpSegment = 103  // UDP_SEGMENT, level SOL_UDP (= IPPROTO_UDP)
	udpGRO     = 104  // UDP_GRO, level SOL_UDP
	maxSegment = 1500 // the capacity of a wire pool buffer
)

// offload: readers of unwrapped sockets read runs (readRun), and
// writers of unwrapped sockets write them (writeRun).
const offload = true

// runBuf is a buffer for one run: the largest UDP payload, and room
// for the control message that names the segment size (the leading
// field aligns it for a cmsghdr).
type runBuf struct {
	_   [0]uintptr
	oob [64]byte
	b   [1 << 16]byte
}

// runBufs recycles run buffers across drivers: a reader draws one when
// it starts and returns it when it exits, and writeRun holds one for
// each write, so a fresh driver per transfer does not allocate 64 KiB
// per socket.
var runBufs = sync.Pool{New: func() any { return new(runBuf) }}

// readRun performs one blocking read into rb and hands each datagram
// of it to the driver loop in its own pool buffer, one copy each, as
// readOne hands over one. A read without a segment size is one
// datagram, truncated to the pool buffer as readOne truncates it. A
// run whose segments no pool buffer holds (longer than it, or cut
// short by the kernel: MSG_TRUNC) is junk: it goes over as one empty
// datagram, which the stack drops and counts as undecodable, rather
// than as pieces.
//
//mpq:noescape
func (d *Driver) readRun(s *pathSocket, c *net.UDPConn, rb *runBuf) (readStatus, error) {
	n, oobn, flags, from, err := c.ReadMsgUDPAddrPort(rb.b[:], rb.oob[:])
	if err != nil {
		return d.readFailed(s, err)
	}
	from = netip.AddrPortFrom(from.Addr().Unmap(), from.Port())
	run := rb.b[:n]
	seg := runSegment(n, rb.oob[:oobn], flags)
	if seg == 0 {
		run = run[:0]
	}
	for {
		buf := wire.GetPacketBuf()
		k := min(seg, len(run))
		b := buf[:copy(buf[:cap(buf)], run[:k])]
		run = run[k:]
		select {
		case d.recvCh <- packetIn{s: s, from: from, buf: b}:
		case <-d.closeCh:
			wire.PutPacketBuf(b)
			return readClosed, nil
		}
		if len(run) == 0 {
			return readOK, nil
		}
	}
}

// writeRun sends q's datagrams i … i+k-1, a run from gsoRun, as one
// UDP_SEGMENT message and counts each of them. It reports false, with
// nothing sent, when the kernel refused the message; the caller then
// writes the run one datagram at a time.
//
//mpq:noescape
func (d *Driver) writeRun(s *pathSocket, i, k int) bool {
	q := &s.out
	rb := runBufs.Get().(*runBuf)
	n := 0
	for _, b := range q.bufs[i : i+k] {
		n += copy(rb.b[n:], b)
	}
	oob := gsoCmsg(&rb.oob, len(q.bufs[i]))
	_, _, err := s.w.uc.WriteMsgUDPAddrPort(rb.b[:n], oob, q.to[i])
	runBufs.Put(rb)
	d.Stats.EgressWrites++
	if err != nil {
		s.w.gso = !cannotOffload(err)
		return false
	}
	for _, b := range q.bufs[i : i+k] {
		d.noteSent(s, len(b))
	}
	return true
}

// gsoCmsg lays one UDP_SEGMENT control message naming seg into oob and
// returns it.
func gsoCmsg(oob *[64]byte, seg int) []byte {
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	h.Level, h.Type = syscall.IPPROTO_UDP, udpSegment
	h.SetLen(syscall.CmsgLen(2))
	binary.NativeEndian.PutUint16(oob[syscall.CmsgLen(0):], uint16(seg))
	return oob[:syscall.CmsgSpace(2)]
}

// cannotOffload reports whether a refused run says the socket cannot
// offload at all.
func cannotOffload(err error) bool {
	return errors.Is(err, syscall.EIO) || errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.EMSGSIZE)
}

// enableGRO sets UDP_GRO on c, best-effort: a kernel without it keeps
// handing the reader one datagram per read, which readRun handles
// the same way.
func enableGRO(c *net.UDPConn) {
	raw, err := c.SyscallConn()
	if err != nil {
		return
	}
	_ = raw.Control(func(fd uintptr) {
		_ = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1)
	})
}

// runSegment returns the length a read of n bytes is cut by: the
// UDP_GRO segment size, n for a read of one datagram, and 0 for junk
// (see readRun).
//
//mpq:noescape
func runSegment(n int, oob []byte, flags int) int {
	switch seg := groSegment(oob); {
	case seg == 0:
		return n
	case seg < 0 || seg > maxSegment || flags&syscall.MSG_TRUNC != 0:
		return 0
	default:
		return seg
	}
}

// groSegment returns the segment size a UDP_GRO control message in oob
// carries, 0 when there is none. Parsed in place:
// syscall.ParseSocketControlMessage allocates. oob must be aligned for
// a cmsghdr, as runBuf.oob is.
//
//mpq:noescape
func groSegment(oob []byte) int {
	const hdrLen = int(unsafe.Sizeof(syscall.Cmsghdr{}))
	const align = int(unsafe.Sizeof(uintptr(0)))
	for len(oob) >= hdrLen {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
		l := int(h.Len)
		if l < hdrLen || l > len(oob) {
			return 0
		}
		if h.Level == syscall.IPPROTO_UDP && h.Type == udpGRO && l >= hdrLen+4 {
			return int(*(*int32)(unsafe.Pointer(&oob[hdrLen])))
		}
		if l = (l + align - 1) &^ (align - 1); l >= len(oob) {
			return 0
		}
		oob = oob[l:]
	}
	return 0
}
