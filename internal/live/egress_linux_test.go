package live_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"net/netip"
	"sync"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"mpquic/internal/core"
	"mpquic/internal/live"
	"mpquic/internal/netem"
	"mpquic/internal/wire"
)

// Segmentation offload on real sockets: runs of equal-size datagrams
// to one peer leave as one UDP_SEGMENT message, which a receiver with
// UDP_GRO set reads back as one run with its segment size, and every
// datagram still arrives intact, in order and counted alone.

const udpGRO = 104 // UDP_GRO, level SOL_UDP

// groReceiver binds a socket on host with UDP_GRO set, so each read
// returns a whole offloaded run.
func groReceiver(t *testing.T, host string) *net.UDPConn {
	t.Helper()
	rx, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.AddrPortFrom(netip.MustParseAddr(host), 0)))
	if err != nil {
		t.Skipf("no UDP socket on %s: %v", host, err)
	}
	t.Cleanup(func() { rx.Close() })
	rx.SetReadBuffer(live.DefaultSocketBuffer)
	raw, err := rx.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	raw.Control(func(fd uintptr) { serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1) })
	if serr != nil {
		t.Skipf("kernel without UDP_GRO: %v", serr)
	}
	return rx
}

// addrOf names a receiving socket as a path address.
func addrOf(rx *net.UDPConn) netem.Addr {
	return netem.Addr(rx.LocalAddr().(*net.UDPAddr).AddrPort().String())
}

// run is one read of a UDP_GRO socket: the datagrams it held and the
// segment size the kernel named, 0 when the read was one datagram.
type run struct {
	seg    int
	dgrams [][]byte
}

// readRuns reads from a UDP_GRO socket until n datagrams have arrived.
func readRuns(t *testing.T, rx *net.UDPConn, n int) []run {
	t.Helper()
	rx.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf, oob := make([]byte, 1<<16), make([]byte, 128)
	var runs []run
	for got := 0; got < n; {
		k, oobn, _, _, err := rx.ReadMsgUDPAddrPort(buf, oob)
		if err != nil {
			t.Fatalf("received %d of %d datagrams: %v", got, n, err)
		}
		r := run{}
		msgs, err := syscall.ParseSocketControlMessage(oob[:oobn])
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			if m.Header.Level == syscall.IPPROTO_UDP && m.Header.Type == udpGRO {
				r.seg = int(binary.NativeEndian.Uint32(m.Data))
			}
		}
		seg := r.seg
		if seg == 0 {
			seg = k
		}
		for b := buf[:k]; len(b) > 0; {
			l := min(seg, len(b))
			r.dgrams = append(r.dgrams, append([]byte(nil), b[:l]...))
			b = b[l:]
		}
		got += len(r.dgrams)
		runs = append(runs, r)
	}
	return runs
}

// One flush that mixes runs, a shorter tail, a size change and
// alternating peers: each peer gets its datagrams intact and in order,
// and the offloaded runs reach the UDP_GRO peer as single reads naming
// their segment size. A full batch of 1350-byte datagrams splits at
// 48: 49 would pass the 65 507-byte limit.
func TestOffloadGroupsRunsAndKeepsOrder(t *testing.T) {
	type dg struct {
		toGRO bool
		size  int
	}
	var plan []dg
	add := func(toGRO bool, n, size int) {
		for i := 0; i < n; i++ {
			plan = append(plan, dg{toGRO, size})
		}
	}
	add(false, 10, 1200) // a run with a shorter tail
	add(false, 1, 500)
	add(true, 5, 1350) // the same to the other peer
	add(true, 1, 700)
	add(false, 3, 900) // a size change
	for i := 0; i < 2; i++ {
		add(true, 1, 1000) // alternating peers: no runs
		add(false, 1, 1000)
	}
	add(true, 4, 800)
	wantRuns := []run{{seg: 1350}, {}, {}, {seg: 800}} // what the UDP_GRO peer reads
	wantLens := []int{6, 1, 1, 4}

	for _, host := range []string{"127.0.0.1", "::1"} {
		t.Run(host, func(t *testing.T) {
			d, plain := loopbackPair(t, host)
			gro := groReceiver(t, host)
			var sizes [2][]int
			for seq, p := range plan {
				to, side := addrOf(plain), 0
				if p.toGRO {
					to, side = addrOf(gro), 1
				}
				sendFilled(d, to, uint64(seq), p.size)
				sizes[side] = append(sizes[side], p.size)
			}
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			// The plain peer reads one datagram at a time, in order.
			plain.SetReadDeadline(time.Now().Add(5 * time.Second))
			buf := make([]byte, 2048)
			last := int64(-1)
			for _, size := range sizes[0] {
				k, _, err := plain.ReadFromUDPAddrPort(buf)
				if err != nil {
					t.Fatal(err)
				}
				seq := int64(checkFilled(t, buf[:k], size))
				if seq <= last || plan[seq].toGRO {
					t.Fatalf("plain peer got datagram %d after %d", seq, last)
				}
				last = seq
			}
			runs := readRuns(t, gro, len(sizes[1]))
			i, last := 0, int64(-1)
			for _, r := range runs {
				for _, b := range r.dgrams {
					seq := int64(checkFilled(t, b, sizes[1][i]))
					if seq <= last || !plan[seq].toGRO {
						t.Fatalf("UDP_GRO peer got datagram %d after %d", seq, last)
					}
					i, last = i+1, seq
				}
			}
			if len(runs) != len(wantRuns) {
				t.Fatalf("UDP_GRO peer read %d runs, want %d", len(runs), len(wantRuns))
			}
			for k, r := range runs {
				if r.seg != wantRuns[k].seg || len(r.dgrams) != wantLens[k] {
					t.Fatalf("run %d: %d datagrams of segment size %d, want %d of %d", k, len(r.dgrams), r.seg, wantLens[k], wantRuns[k].seg)
				}
			}
			st := d.Stats
			if st.PacketsOut != uint64(len(plan)) || st.WriteErrors != 0 || st.NoRoute != 0 {
				t.Fatalf("Stats = %+v, want %d datagrams out and no errors", st, len(plan))
			}
			// One write per message: the runs of 11, 6, 3 and 4 and
			// the four alternating datagrams.
			if st.EgressWrites != 8 {
				t.Fatalf("EgressWrites = %d for one batch, want 8 messages", st.EgressWrites)
			}

			// A full batch at the largest packet size: 48 + 16.
			for seq := uint64(0); seq < 64; seq++ {
				sendFilled(d, addrOf(gro), seq, wire.MaxPacketSize)
			}
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			runs = readRuns(t, gro, 64)
			if len(runs) != 2 || len(runs[0].dgrams) != 48 || len(runs[1].dgrams) != 16 {
				t.Fatalf("64 datagrams of %d bytes read as %d runs (first %d), want 48 + 16", wire.MaxPacketSize, len(runs), len(runs[0].dgrams))
			}
			if w := d.Stats.EgressWrites - st.EgressWrites; w != 2 {
				t.Fatalf("EgressWrites = %d for 48 + 16, want 2 messages", w)
			}
			seq := uint64(0)
			for _, r := range runs {
				for _, b := range r.dgrams {
					if got := checkFilled(t, b, wire.MaxPacketSize); got != seq {
						t.Fatalf("datagram %d carries %d", seq, got)
					}
					seq++
				}
			}
		})
	}
}

// A socket whose kernel refuses offload (SO_NO_CHECK: every
// UDP_SEGMENT send fails with EINVAL) still delivers every datagram,
// counted exactly as the per-datagram path counts them; its conn stops
// grouping, and the conn a rebind brings in groups again.
func TestOffloadRefusedFallsBackAndRebindRetries(t *testing.T) {
	const n, size = 20, 1200
	flush := func(d *live.Driver, rx *net.UDPConn, first uint64) []run {
		t.Helper()
		for i := uint64(0); i < n; i++ {
			sendFilled(d, addrOf(rx), first+i, size)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		runs := readRuns(t, rx, n)
		seq := first
		for _, r := range runs {
			for _, b := range r.dgrams {
				if got := checkFilled(t, b, size); got != seq {
					t.Fatalf("datagram %d carries %d", seq, got)
				}
				seq++
			}
		}
		return runs
	}

	// The per-datagram path's count of the same flush.
	ref := newChaosDriver(t, 1, live.WithSocketWrapper(func(_ int, c live.UDPConn) live.UDPConn { return &passThrough{c} }))
	flush(ref, groReceiver(t, "127.0.0.1"), 0)

	var mu sync.Mutex
	var conns []live.UDPConn
	record := live.WithSocketWrapper(func(_ int, c live.UDPConn) live.UDPConn {
		mu.Lock()
		defer mu.Unlock()
		conns = append(conns, c)
		return c
	})
	d := newChaosDriver(t, 1, record, live.WithRebind(4, 5*time.Millisecond))
	if err := live.SetNoCheck(d, 0); err != nil {
		t.Fatal(err)
	}
	rx := groReceiver(t, "127.0.0.1")
	if runs := flush(d, rx, 0); len(runs) != n {
		t.Fatalf("refused offload still read as %d runs", len(runs))
	}
	got, want := d.Stats, ref.Stats
	if got.PacketsOut != n || got.WriteErrors != 0 || got.EgressWrites != n+1 {
		t.Fatalf("Stats = %+v, want %d out, no errors, the refused run's write and one write each", got, n)
	}
	want.EgressWrites++
	if got != want {
		t.Fatalf("Stats %+v differ from the per-datagram path's %+v but for the refused write", got, ref.Stats)
	}

	// The conn no longer groups: one write each, no refusal.
	writes := d.Stats.EgressWrites
	if runs := flush(d, rx, n); len(runs) != n || d.Stats.EgressWrites != writes+n {
		t.Fatalf("second flush: %d runs in %d writes, want %d single datagrams in %d writes", len(runs), d.Stats.EgressWrites-writes, n, n)
	}

	// Kill the socket; the reader's ladder binds a fresh one.
	mu.Lock()
	conns[0].Close()
	mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for live.WriterFollowsConn(d, 0) {
		if time.Now().After(deadline) {
			t.Fatal("socket never rebound")
		}
		time.Sleep(5 * time.Millisecond)
	}
	runs := flush(d, rx, 2*n)
	if len(runs) != 1 || runs[0].seg != size {
		t.Fatalf("after the rebind: %d runs (first of segment size %d), want one run of %d", len(runs), runs[0].seg, size)
	}
	if d.Stats.PacketsOut != 3*n || d.Stats.WriteErrors != 0 {
		t.Fatalf("Stats = %+v, want %d out and no errors", d.Stats, 3*n)
	}
}

// gsoSend writes b to dst as one UDP_SEGMENT message of seg-byte
// segments from a plain socket.
func gsoSend(t *testing.T, dst netem.Addr, b []byte, seg int) {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("no UDP socket: %v", err)
	}
	defer c.Close()
	oob := make([]byte, syscall.CmsgSpace(2))
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	h.Level, h.Type = syscall.IPPROTO_UDP, 103 // UDP_SEGMENT
	h.SetLen(syscall.CmsgLen(2))
	binary.NativeEndian.PutUint16(oob[syscall.CmsgLen(0):], uint16(seg))
	if _, _, err := c.WriteMsgUDPAddrPort(b, oob, netip.MustParseAddrPort(string(dst))); err != nil {
		t.Skipf("kernel refused UDP_SEGMENT: %v", err)
	}
}

// A run whose segments no pool buffer holds is dropped as one datagram
// and counted as undecodable, not cut into pieces; a run of
// ordinary-size junk is counted per datagram, as separate reads were.
func TestGROJunkRunDroppedAndCounted(t *testing.T) {
	d := newDriver(t, 1)
	core.Listen(d, liveConfig(1), d.LocalAddrs())
	to := d.LocalAddrs()[0]
	drive := func(in uint64) {
		t.Helper()
		if err := d.DriveUntil(context.Background(), 5*time.Second, func() bool { return d.Stats.PacketsIn >= in }); err != nil {
			t.Fatal(err)
		}
		d.UpdateSocketStats()
	}
	gsoSend(t, to, bytes.Repeat([]byte{0xff}, 3*2000), 2000)
	drive(1)
	if st := d.Stats; st.PacketsIn != 1 || st.CorruptDrops != 1 {
		t.Fatalf("a run of three 2000-byte segments: Stats = %+v, want one datagram in, one corrupt drop", st)
	}
	gsoSend(t, to, bytes.Repeat([]byte{0xff}, 3*1000), 1000)
	drive(4)
	if st := d.Stats; st.PacketsIn != 4 || st.CorruptDrops != 4 {
		t.Fatalf("a run of three 1000-byte segments: Stats = %+v, want three more datagrams in, each a corrupt drop", st)
	}
}
