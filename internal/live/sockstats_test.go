package live

import (
	"net/netip"
	"testing"
)

// A /proc/net/udp table is read once for all of a driver's sockets:
// the drops of the lines whose local address is one of them are
// summed, and a foreign socket's are left out.
func TestUDPDropsSumsTheDriversSockets(t *testing.T) {
	table := []byte(`   sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops
  101: 0100007F:1151 00000000:0000 07 00000000:00000000 00:00000000 00000000  1000        0 41001 2 0000000000000000 17
  102: 0100007F:14E9 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 41002 2 0000000000000000 1000
  103: 0100007F:1152 00000000:0000 07 00000000:00000000 00:00000000 00000000  1000        0 41003 2 0000000000000000 4
`)
	var want []string
	for _, a := range []string{"127.0.0.1:4433", "127.0.0.1:4434"} {
		want = append(want, procLocalHex(netip.MustParseAddrPort(a)))
	}
	if want[0] != "0100007F:1151" || want[1] != "0100007F:1152" {
		t.Fatalf("local addresses render as %q, want 0100007F:1151 and 0100007F:1152", want)
	}
	if got := udpDrops(table, want); got != 17+4 {
		t.Fatalf("udpDrops = %d, want %d: the two sockets' drops, not the foreign one's", got, 17+4)
	}
}
