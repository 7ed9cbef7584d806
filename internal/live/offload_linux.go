package live

import (
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"syscall"
	"unsafe"

	"mpquic/internal/netem"
)

// Segmentation offload, both directions, on the driver's own
// *net.UDPConn (a socket behind a SocketWrapper takes the plain path).
//
// Send (UDP_SEGMENT, Linux 4.18+): each run of consecutive datagrams to
// one peer and of one size — the last may be shorter — lies back to
// back in the socket's batch buffer and is written from there as one
// message with a cmsg naming the segment size. The kernel cuts it back
// into those datagrams after one trip through its UDP stack instead of
// one trip each. EIO, EINVAL or
// EMSGSIZE on such a write means the socket cannot offload, and its
// writer stops grouping.
//
// Receive (UDP_GRO, Linux 5.0+): a socket with UDP_GRO set may hand its
// reader a run of datagrams from one sender in one read, with a cmsg
// naming the segment size: every segment but the last has exactly that
// size. Over loopback this is what a UDP_SEGMENT sender's runs stay, so
// a run crosses the receiving UDP stack once as well, and reaches the
// driver loop as one read in a run buffer.

const (
	udpSegment = 103 // UDP_SEGMENT, level SOL_UDP (= IPPROTO_UDP)
	udpGRO     = 104 // UDP_GRO, level SOL_UDP
)

// offload: readers of unwrapped sockets read runs (readRun), and
// writers of unwrapped sockets write them (writeRun).
const offload = true

// readRun performs one blocking read of a run into b, a window of rb,
// and returns its length and the length it is cut by (runSegment).
//
//mpq:noescape
func readRun(c *net.UDPConn, rb *runBuf, b []byte) (n, seg int, from netip.AddrPort, err error) {
	n, oobn, flags, from, err := c.ReadMsgUDPAddrPort(b, rb.oob[:])
	if err != nil {
		return 0, 0, from, err
	}
	return n, runSegment(n, rb.oob[:oobn], flags), from, nil
}

// writeRun sends q's datagrams i … i+k-1, a run from gsoRun, as one
// UDP_SEGMENT message, a slice of the batch buffer, and counts each of
// them. It reports false, with nothing sent, when the kernel refused
// the message; the caller then writes the run one datagram at a time.
//
//mpq:noescape
func (d *Driver) writeRun(s *pathSocket, i, k int) bool {
	q := &s.out
	seg := len(q.dgram(i))
	start := int(q.end[i]) - seg
	oob := gsoCmsg(&q.rb.oob, seg)
	_, _, err := s.w.uc.WriteMsgUDPAddrPort(q.rb.b[start:q.end[i+k-1]], oob, q.to[i])
	d.Stats.EgressWrites++
	if err != nil {
		s.w.gso = !cannotOffload(err)
		return false
	}
	for j := i; j < i+k; j++ {
		d.noteSent(s, len(q.dgram(j)))
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
// UDP_GRO segment size, n for a read of one datagram, and 0 for junk:
// a run whose segments are longer than netem.MTU, or one the kernel cut
// short (MSG_TRUNC). Junk reaches the stack as one empty datagram (see
// cut), which it drops and counts as undecodable, rather than as
// pieces.
//
//mpq:noescape
func runSegment(n int, oob []byte, flags int) int {
	switch seg := groSegment(oob); {
	case seg == 0:
		return n
	case seg < 0 || seg > netem.MTU || flags&syscall.MSG_TRUNC != 0:
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
