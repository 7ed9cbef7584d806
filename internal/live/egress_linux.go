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

type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32 // bytes sent, filled in by the kernel
	_   [4]byte
}

// mmsgBatch is the vector for one batch, rebuilt in place for every
// call. errs[i] is the kernel's refusal of message i, 0 when sent.
type mmsgBatch struct {
	hdrs  [egressBatchMax]mmsghdr
	iovs  [egressBatchMax]syscall.Iovec
	names [egressBatchMax]syscall.RawSockaddrInet6 // room for either family
	errs  [egressBatchMax]syscall.Errno
	n     int    // messages in the vector
	done  int    // messages settled: sent or refused
	calls uint64 // sendmmsg calls issued
}

// sockWriter is one socket's binding to the batched path, made once
// per conn (a rebind makes a new one). raw is nil when the conn is not
// a *net.UDPConn: its datagrams go one by one through the interface.
type sockWriter struct {
	box   *connBox
	raw   syscall.RawConn
	write func(fd uintptr) bool // the batch's sendmmsg loop, bound once
	v6    bool                  // AF_INET6 socket: v4 peers go v4-mapped
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
	w.raw, w.write, w.v6 = raw, m.write, family == syscall.AF_INET6
}

// sendBatch writes s's queued batch with sendmmsg(2) and counts every
// message it settled. It returns how many leading messages that was:
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
	m.n, m.done, m.calls = q.n, 0, 0
	for i := range q.bufs[:q.n] {
		b := q.bufs[i]
		m.iovs[i].Base = unsafe.SliceData(b)
		m.iovs[i].SetLen(len(b))
		h := &m.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&m.names[i]))
		h.Namelen = putSockaddr(&m.names[i], q.to[i], w.v6)
		h.Iov = &m.iovs[i]
		h.Iovlen = 1
		m.errs[i] = 0
	}
	// An error here means the socket itself is gone; what the loop did
	// not settle is left to the caller's per-datagram writes.
	_ = w.raw.Write(w.write)
	d.Stats.EgressWrites += m.calls
	for i := range q.bufs[:m.done] {
		if e := m.errs[i]; e != 0 {
			d.noteErrno(s, e)
		} else {
			d.noteSent(s, len(q.bufs[i]))
		}
	}
	return m.done
}

// write is the RawConn.Write callback: sendmmsg until every message is
// settled. A message the kernel refuses fails the call that starts
// with it, so it is marked and skipped and the call goes on from the
// next one. EAGAIN returns false: RawConn.Write waits for the socket
// to drain and calls again.
func (m *mmsgBatch) write(fd uintptr) bool {
	for m.done < m.n {
		r, _, e := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&m.hdrs[m.done])), uintptr(m.n-m.done), 0, 0, 0)
		m.calls++
		switch e {
		case 0:
			m.done += int(r)
		case syscall.EAGAIN:
			return false
		case syscall.EINTR:
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
