package live

import (
	"syscall"
	"testing"
	"unsafe"

	"mpquic/internal/netem"
)

// aligned returns n zero bytes aligned for a cmsghdr.
func aligned(n int) []byte {
	buf := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), n)
}

// groCmsg lays out one control message of the given level, type and
// int32 payload, aligned as the kernel aligns it.
func groCmsg(level, typ int32, v int32) []byte {
	b := aligned(syscall.CmsgSpace(4))
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&b[0]))
	h.Level, h.Type = level, typ
	h.SetLen(syscall.CmsgLen(4))
	*(*int32)(unsafe.Pointer(&b[syscall.CmsgLen(0)])) = v
	return b
}

// A read is cut by the UDP_GRO segment size when one is present, is
// one datagram without it, and is junk (0) when its segments could not
// fit a pool buffer or the kernel cut it short.
func TestRunSegment(t *testing.T) {
	gro := groCmsg(syscall.IPPROTO_UDP, udpGRO, 1200)
	other := groCmsg(syscall.SOL_SOCKET, udpGRO, 1200)
	twoMsgs := aligned(len(other) + len(gro))
	copy(twoMsgs[copy(twoMsgs, other):], gro)
	bad := groCmsg(syscall.IPPROTO_UDP, udpGRO, 1200)
	(*syscall.Cmsghdr)(unsafe.Pointer(&bad[0])).SetLen(len(bad) + 1)
	for _, c := range []struct {
		name  string
		n     int
		oob   []byte
		flags int
		want  int
	}{
		{"no cmsg", 1400, nil, 0, 1400},
		{"no cmsg, empty datagram", 0, nil, 0, 0},
		{"segment size", 6000, gro, 0, 1200},
		{"after another cmsg", 6000, twoMsgs, 0, 1200},
		{"another level only", 1400, other, 0, 1400},
		{"length past the buffer", 1400, bad, 0, 1400},
		{"truncated run", 6000, gro, syscall.MSG_TRUNC, 0},
		{"segment over a pool buffer", 6000, groCmsg(syscall.IPPROTO_UDP, udpGRO, netem.MTU+1), 0, 0},
		{"negative segment", 6000, groCmsg(syscall.IPPROTO_UDP, udpGRO, -5), 0, 0},
		{"largest segment", 6000, groCmsg(syscall.IPPROTO_UDP, udpGRO, netem.MTU), 0, netem.MTU},
	} {
		if got := runSegment(c.n, c.oob, c.flags); got != c.want {
			t.Errorf("%s: runSegment = %d, want %d", c.name, got, c.want)
		}
	}
}
