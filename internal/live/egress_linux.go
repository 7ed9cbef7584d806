//go:build amd64 || arm64

package live

import (
	"net"
	"net/netip"
	"strconv"
	"syscall"
	"unsafe"
)

// sendmmsg(2) through the standard library alone: the message vector
// is laid out by hand (mmsghdr is msghdr plus the kernel's per-message
// byte count; the layout is the same on every 64-bit Linux target) and
// the call is issued with syscall.Syscall6 inside RawConn.Write, which
// holds the socket's write lock and parks on EAGAIN until the socket
// is writable again, as Go's own writes do. The syscall number lives
// in egress_linux_<arch>.go.
//
// Segmentation offload (UDP_SEGMENT, Linux 4.18+): each maximal run of
// consecutive datagrams to one peer and of one size — the last may be
// shorter — is one message, one iovec per datagram, with a cmsg naming
// the segment size. The kernel cuts it back into those datagrams after
// one trip through its UDP stack instead of one trip each. A run of
// one datagram is a plain message. A refused run is split in place
// into one message per datagram and sent again in the same loop, so
// every datagram is still counted alone; EIO, EINVAL or EMSGSIZE there
// means the socket cannot offload, and its writer stops grouping.

type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32 // bytes sent, filled in by the kernel
	_   [4]byte
}

const (
	udpSegment  = 103   // UDP_SEGMENT, level SOL_UDP (= IPPROTO_UDP)
	gsoMaxBytes = 65507 // payload bytes in one message: the IPv4 datagram limit
	gsoMaxSegs  = 64    // segments in one message on every kernel that has UDP_SEGMENT
)

// A batch never holds more datagrams than one message may carry.
const _ = uint(gsoMaxSegs - egressBatchMax)

// gsoCmsg is one UDP_SEGMENT control message, CMSG_SPACE(2) bytes.
type gsoCmsg struct {
	hdr  syscall.Cmsghdr
	size uint16
	_    [6]byte
}

// mmsgBatch is the vector for one batch, rebuilt in place for every
// call. Message k carries datagrams first[k] … first[k]+segs[k]-1,
// whose iovecs are iovs[first[k]:]; names and gso are per message.
// errs[k] is the kernel's refusal of message k, 0 when sent; only a
// one-datagram message is ever marked refused.
type mmsgBatch struct {
	hdrs  [egressBatchMax]mmsghdr
	iovs  [egressBatchMax]syscall.Iovec
	names [egressBatchMax]syscall.RawSockaddrInet6 // room for either family
	gso   [egressBatchMax]gsoCmsg
	first [egressBatchMax]uint8
	segs  [egressBatchMax]uint8
	errs  [egressBatchMax]syscall.Errno
	n     int    // messages in the vector
	done  int    // messages settled: sent or refused
	calls uint64 // sendmmsg calls issued
	noGSO bool   // a run was refused because the socket cannot offload
}

// sockWriter is one socket's binding to the batched path, made once
// per conn (a rebind makes a new one, which tries offload again). raw
// is nil when the conn is not a *net.UDPConn: its datagrams go one by
// one through the interface.
type sockWriter struct {
	box   *connBox
	raw   syscall.RawConn
	write func(fd uintptr) bool // the batch's sendmmsg loop, bound once
	v6    bool                  // AF_INET6 socket: v4 peers go v4-mapped
	gso   bool                  // group runs into UDP_SEGMENT messages
}

// bind points w at the conn in box: its RawConn, the write callback
// and the socket's address family, read back from the kernel. Any
// failure leaves the conn on the per-datagram path, which then reports
// the socket's errors as it always did.
//
//go:noinline
func (w *sockWriter) bind(box *connBox, m *mmsgBatch) {
	*w = sockWriter{box: box}
	uc, ok := box.c.(*net.UDPConn)
	if !ok {
		return
	}
	raw, err := uc.SyscallConn()
	if err != nil {
		return
	}
	family := 0
	err = raw.Control(func(fd uintptr) {
		switch sa, _ := syscall.Getsockname(int(fd)); sa.(type) {
		case *syscall.SockaddrInet4:
			family = syscall.AF_INET
		case *syscall.SockaddrInet6:
			family = syscall.AF_INET6
		}
	})
	if err != nil || family == 0 {
		return
	}
	w.raw, w.write, w.v6, w.gso = raw, m.write, family == syscall.AF_INET6, true
}

// sendBatch writes s's queued batch with sendmmsg(2) and counts every
// datagram it settled. It returns how many leading datagrams that was:
// the whole batch, or fewer when the socket failed as a whole (closed
// under the driver), and 0 when s's writer has no batched path.
//
//mpq:noescape
func (d *Driver) sendBatch(s *pathSocket) int {
	w := &s.w
	if w.raw == nil {
		return 0
	}
	q := &s.out
	m := &q.sys
	m.n, m.done, m.calls, m.noGSO = 0, 0, 0, false
	for i := 0; i < q.n; {
		k := 1
		if w.gso {
			k = gsoRun(q, i)
		}
		m.add(q, i, k, w.v6)
		i += k
	}
	// An error here means the socket itself is gone; what the loop did
	// not settle is left to the caller's per-datagram writes.
	_ = w.raw.Write(w.write)
	d.Stats.EgressWrites += m.calls
	w.gso = w.gso && !m.noGSO
	for k := range m.errs[:m.done] {
		if e := m.errs[k]; e != 0 {
			d.noteErrno(s, e)
			continue
		}
		for i := int(m.first[k]); i < int(m.first[k])+int(m.segs[k]); i++ {
			d.noteSent(s, len(q.bufs[i]))
		}
	}
	if m.done == m.n {
		return q.n
	}
	return int(m.first[m.done])
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

// add lays out the next message: k datagrams of q from the i-th on,
// with a UDP_SEGMENT cmsg when k > 1.
func (m *mmsgBatch) add(q *egressBatch, i, k int, v6 bool) {
	for x := i; x < i+k; x++ {
		m.iovs[x].Base = unsafe.SliceData(q.bufs[x])
		m.iovs[x].SetLen(len(q.bufs[x]))
	}
	j := m.n
	h := &m.hdrs[j].hdr
	h.Name = (*byte)(unsafe.Pointer(&m.names[j]))
	h.Namelen = putSockaddr(&m.names[j], q.to[i], v6)
	h.Iov = &m.iovs[i]
	h.Iovlen = uint64(k)
	h.Control, h.Controllen = nil, 0
	if k > 1 {
		c := &m.gso[j]
		c.hdr = syscall.Cmsghdr{Level: syscall.IPPROTO_UDP, Type: udpSegment}
		c.hdr.SetLen(syscall.CmsgLen(2))
		c.size = uint16(len(q.bufs[i]))
		h.Control = (*byte)(unsafe.Pointer(c))
		h.SetControllen(syscall.CmsgSpace(2))
	}
	m.first[j], m.segs[j], m.errs[j] = uint8(i), uint8(k), 0
	m.n++
}

// split turns message k into one message per datagram, in place. The
// messages after it move up; their names, iovecs and cmsgs stay where
// they are, so the pointers they carry still hold, and the new
// messages share k's name. Messages never outnumber datagrams, so the
// vector has room.
func (m *mmsgBatch) split(k int) {
	s, first := int(m.segs[k]), int(m.first[k])
	copy(m.hdrs[k+s:], m.hdrs[k+1:m.n])
	copy(m.first[k+s:], m.first[k+1:m.n])
	copy(m.segs[k+s:], m.segs[k+1:m.n])
	h := m.hdrs[k].hdr
	h.Iovlen, h.Control, h.Controllen = 1, nil, 0
	for x := 0; x < s; x++ {
		h.Iov = &m.iovs[first+x]
		m.hdrs[k+x] = mmsghdr{hdr: h}
		m.first[k+x], m.segs[k+x], m.errs[k+x] = uint8(first+x), 1, 0
	}
	m.n += s - 1
}

// write is the RawConn.Write callback: sendmmsg until every message is
// settled. A message the kernel refuses fails the call that starts
// with it: a run is split into single datagrams and tried again, a
// single datagram is marked and skipped, and the call goes on from
// there. EAGAIN returns false: RawConn.Write waits for the socket to
// drain and calls again.
func (m *mmsgBatch) write(fd uintptr) bool {
	for m.done < m.n {
		r, _, e := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&m.hdrs[m.done])), uintptr(m.n-m.done), 0, 0, 0)
		m.calls++
		switch {
		case e == 0:
			m.done += int(r)
		case e == syscall.EAGAIN:
			return false
		case e == syscall.EINTR:
		case m.segs[m.done] > 1:
			m.noGSO = m.noGSO || e == syscall.EIO || e == syscall.EINVAL || e == syscall.EMSGSIZE
			m.split(m.done)
		default:
			m.errs[m.done] = e
			m.done++
		}
	}
	return true
}

// putSockaddr writes ap into sa in the socket's family and returns the
// address length. A v6 peer on a v4 socket gets length 0, which the
// kernel refuses for that message alone, as WriteToUDPAddrPort refuses
// it.
func putSockaddr(sa *syscall.RawSockaddrInet6, ap netip.AddrPort, v6 bool) uint32 {
	a := ap.Addr()
	if !v6 {
		a = a.Unmap()
		if !a.Is4() {
			return 0
		}
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		*sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: a.As4()}
		putPort(&sa4.Port, ap.Port())
		return syscall.SizeofSockaddrInet4
	}
	*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: a.As16()}
	if z := a.Zone(); z != "" {
		sa.Scope_id = zoneIndex(z)
	}
	putPort(&sa.Port, ap.Port())
	return syscall.SizeofSockaddrInet6
}

// putPort stores a port in network byte order.
func putPort(dst *uint16, port uint16) {
	p := (*[2]byte)(unsafe.Pointer(dst))
	p[0], p[1] = byte(port>>8), byte(port)
}

// zoneIndex resolves an IPv6 zone (a link-local peer's interface) to
// its index, as the net package does for WriteToUDPAddrPort.
//
//go:noinline
func zoneIndex(zone string) uint32 {
	if i, err := strconv.ParseUint(zone, 10, 32); err == nil {
		return uint32(i)
	}
	if ifi, err := net.InterfaceByName(zone); err == nil {
		return uint32(ifi.Index)
	}
	return 0
}

// noteErrno counts a message the kernel refused, exactly as the same
// errno from WriteToUDPAddrPort would be counted. Kept out of the
// inliner: boxing the errno is the one allocation site on this path.
//
//go:noinline
func (d *Driver) noteErrno(s *pathSocket, e syscall.Errno) {
	d.noteWriteErr(s, e)
}
