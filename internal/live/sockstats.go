package live

import (
	"bytes"
	"fmt"
	"net/netip"
	"os"
	"slices"
	"strconv"
)

// Kernel socket statistics. Linux exposes a per-socket receive-queue
// overflow counter — the number of datagrams dropped because SO_RCVBUF
// was full — as the trailing "drops" column of /proc/net/udp (IPv4)
// and /proc/net/udp6 (IPv6). The driver surfaces it through
// Stats.RcvQueueDrops so a transfer can tell "the kernel queue
// overflowed" apart from "the network lost packets". On platforms
// without procfs the counter reads as zero.

// procUDPDrops sums the kernel drop counters of socks, reading each
// address family's table once; zero where a table cannot be read.
func procUDPDrops(socks []*pathSocket) uint64 {
	var want [2][]string // the sockets of /proc/net/udp, of /proc/net/udp6
	for _, s := range socks {
		i := 0
		if s.ap.Addr().Is6() && !s.ap.Addr().Is4In6() {
			i = 1
		}
		want[i] = append(want[i], procLocalHex(s.ap))
	}
	var total uint64
	for i, path := range [2]string{"/proc/net/udp", "/proc/net/udp6"} {
		if len(want[i]) == 0 {
			continue
		}
		if data, err := os.ReadFile(path); err == nil {
			total += udpDrops(data, want[i])
		}
	}
	return total
}

// udpDrops sums the trailing drops column of the lines of a
// /proc/net/udp[6] table whose local_address is one of want.
func udpDrops(table []byte, want []string) uint64 {
	var total uint64
	for _, line := range bytes.Split(table, []byte("\n")) {
		fields := bytes.Fields(line)
		// sl local rem st queues tr retrnsmt uid timeout inode ref ptr drops
		if len(fields) < 13 || !slices.Contains(want, string(fields[1])) {
			continue
		}
		if n, err := strconv.ParseUint(string(fields[len(fields)-1]), 10, 64); err == nil {
			total += n
		}
	}
	return total
}

// procLocalHex renders an address the way /proc/net/udp[6] prints the
// local_address column: the IP as little-endian 32-bit groups in hex,
// a colon, then the port in big-endian hex.
func procLocalHex(ap netip.AddrPort) string {
	a := ap.Addr().Unmap()
	if a.Is4() {
		b := a.As4()
		return fmt.Sprintf("%02X%02X%02X%02X:%04X", b[3], b[2], b[1], b[0], ap.Port())
	}
	b := a.As16()
	out := make([]byte, 0, 38)
	for g := 0; g < 4; g++ {
		w := b[g*4 : g*4+4]
		out = fmt.Appendf(out, "%02X%02X%02X%02X", w[3], w[2], w[1], w[0])
	}
	return fmt.Sprintf("%s:%04X", out, ap.Port())
}
