package live_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mpquic/internal/core"
	"mpquic/internal/live"
	"mpquic/internal/netem"
)

// Batched egress on real sockets: a flush of many datagrams writes each
// run as one UDP_SEGMENT message where the build offloads, and every
// per-datagram guarantee of the one-write-per-datagram path still
// holds — order, per-datagram error accounting, recovery across a
// rebind.

// offloadBuild reports whether this build writes runs as UDP_SEGMENT
// messages.
var offloadBuild = runtime.GOOS == "linux"

// loopbackPair binds a driver and a plain receiving socket on the
// loopback address host, skipping when the family is unavailable.
func loopbackPair(t *testing.T, host string, opts ...live.Option) (*live.Driver, *net.UDPConn) {
	t.Helper()
	rx, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.AddrPortFrom(netip.MustParseAddr(host), 0)))
	if err != nil {
		t.Skipf("no UDP socket on %s: %v", host, err)
	}
	t.Cleanup(func() { rx.Close() })
	rx.SetReadBuffer(live.DefaultSocketBuffer)
	d, err := live.NewDriver([]string{netip.AddrPortFrom(netip.MustParseAddr(host), 0).String()}, opts...)
	if err != nil {
		if errors.Is(err, os.ErrPermission) || strings.Contains(err.Error(), "not permitted") {
			t.Skipf("UDP sockets unavailable in this sandbox: %v", err)
		}
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, rx
}

// sendSeq queues one datagram carrying seq to the given address.
func sendSeq(d *live.Driver, to netem.Addr, seq uint64, size int) {
	sendSeqFrom(d, d.LocalAddrs()[0], to, seq, size)
}

// sendSeqFrom is sendSeq from the driver's socket bound to from.
func sendSeqFrom(d *live.Driver, from, to netem.Addr, seq uint64, size int) {
	buf := make([]byte, size)
	binary.BigEndian.PutUint64(buf, seq)
	d.Send(core.RawDatagram(from, to, buf))
}

// sendFilled queues a datagram of size bytes carrying seq in its first
// eight and seq's low byte in the rest, so a torn or shifted datagram
// shows.
func sendFilled(d *live.Driver, to netem.Addr, seq uint64, size int) {
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(seq)
	}
	binary.BigEndian.PutUint64(buf, seq)
	d.Send(core.RawDatagram(d.LocalAddrs()[0], to, buf))
}

// checkFilled fails unless b is what sendFilled sent for some seq of
// the given size, and returns that seq.
func checkFilled(t *testing.T, b []byte, size int) uint64 {
	t.Helper()
	if len(b) != size || len(b) < 8 {
		t.Fatalf("datagram of %d bytes, want %d", len(b), size)
	}
	seq := binary.BigEndian.Uint64(b)
	if !bytes.Equal(b[8:], bytes.Repeat([]byte{byte(seq)}, size-8)) {
		t.Fatalf("datagram %d arrived torn", seq)
	}
	return seq
}

// readSeqs reads n datagrams and returns the sequence numbers they carry.
func readSeqs(t *testing.T, rx *net.UDPConn, n int) []uint64 {
	t.Helper()
	rx.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2048)
	var got []uint64
	for len(got) < n {
		k, _, err := rx.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatalf("received %d of %d datagrams: %v", len(got), n, err)
		}
		got = append(got, binary.BigEndian.Uint64(buf[:k]))
	}
	return got
}

// A 200-datagram flush arrives complete and in order, in a handful of
// writes on an offloading build.
func TestBatchedFlushArrivesInOrder(t *testing.T) {
	for _, host := range []string{"127.0.0.1", "::1"} {
		t.Run(host, func(t *testing.T) {
			d, rx := loopbackPair(t, host)
			to := netem.Addr(rx.LocalAddr().(*net.UDPAddr).AddrPort().String())
			const n, size = 200, 1200
			for i := uint64(0); i < n; i++ {
				sendSeq(d, to, i, size)
			}
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			for i, seq := range readSeqs(t, rx, n) {
				if seq != uint64(i) {
					t.Fatalf("datagram %d carries sequence %d: egress reordered", i, seq)
				}
			}
			st := d.Stats
			if st.PacketsOut != n || st.BytesOut != n*size || st.WriteErrors != 0 || st.NoRoute != 0 {
				t.Fatalf("Stats = %+v, want %d datagrams out and no errors", st, n)
			}
			// Three batches of 64, each a run of 54 (55 would pass the
			// 65 507-byte limit) and one of 10, then a run of 8: one
			// write per run.
			if offloadBuild && st.EgressWrites != 7 {
				t.Fatalf("EgressWrites = %d for %d datagrams, want 7 runs", st.EgressWrites, n)
			} else if !offloadBuild && st.EgressWrites != n {
				t.Fatalf("EgressWrites = %d, want one per datagram", st.EgressWrites)
			}
		})
	}
}

// Datagrams from two sockets, queued alternately, are batched per
// socket: each socket's 100 go out in order in two writes on an
// offloading build, not in 200 single-datagram runs.
func TestInterleavedSocketsBatchPerSocket(t *testing.T) {
	d := newChaosDriver(t, 2)
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("no UDP socket on 127.0.0.1: %v", err)
	}
	defer rx.Close()
	rx.SetReadBuffer(live.DefaultSocketBuffer)
	to := netem.Addr(rx.LocalAddr().(*net.UDPAddr).AddrPort().String())
	locals := d.LocalAddrs()
	const n, size = 100, 200
	for i := uint64(0); i < n; i++ {
		for _, from := range locals {
			sendSeqFrom(d, from, to, i, size)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	rx.SetReadDeadline(time.Now().Add(5 * time.Second))
	next := map[netem.Addr]uint64{}
	buf := make([]byte, 2048)
	for got := 0; got < len(locals)*n; got++ {
		k, src, err := rx.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatalf("received %d of %d datagrams: %v", got, len(locals)*n, err)
		}
		from := netem.Addr(netip.AddrPortFrom(src.Addr().Unmap(), src.Port()).String())
		if seq := binary.BigEndian.Uint64(buf[:k]); seq != next[from] {
			t.Fatalf("datagram from %s carries sequence %d, want %d: egress reordered", from, seq, next[from])
		}
		next[from]++
	}
	st := d.Stats
	if st.PacketsOut != 2*n || st.WriteErrors != 0 || st.NoRoute != 0 {
		t.Fatalf("Stats = %+v, want %d datagrams out and no errors", st, 2*n)
	}
	if offloadBuild && st.EgressWrites > 4 {
		t.Fatalf("EgressWrites = %d for two sockets' %d datagrams each, want at most 4", st.EgressWrites, n)
	}
}

// deafConn refuses every write with net.ErrClosed while its reads block
// until Close: a socket whose send side died without its reader
// noticing.
type deafConn struct {
	live.UDPConn
	closed chan struct{}
	once   sync.Once
}

func (c *deafConn) ReadFromUDPAddrPort([]byte) (int, netip.AddrPort, error) {
	<-c.closed
	return 0, netip.AddrPort{}, net.ErrClosed
}

func (c *deafConn) WriteToUDPAddrPort([]byte, netip.AddrPort) (int, error) {
	return 0, net.ErrClosed
}

func (c *deafConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.UDPConn.Close()
}

// Consecutive write failures are counted per conn: the conn a rebind
// brings in starts from zero, so when its writes fail as well the run
// loop closes it too and the reader's ladder runs again.
func TestWriteFailuresCountPerConn(t *testing.T) {
	deaf := live.WithSocketWrapper(func(_ int, c live.UDPConn) live.UDPConn {
		return &deafConn{UDPConn: c, closed: make(chan struct{})}
	})
	d := newChaosDriver(t, 1, deaf, live.WithRebind(8, 5*time.Millisecond))
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 3; i++ {
			sendSeq(d, "127.0.0.1:9", i, 100)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := d.DriveUntil(context.Background(), 200*time.Millisecond, func() bool { return false }); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Stats; st.SocketsDegraded < 2 {
		t.Fatalf("SocketsDegraded = %d after three rounds of failing writes, want the rebound conn closed too; Stats = %+v", st.SocketsDegraded, st)
	}
}

// passThrough hides the *net.UDPConn behind the interface, which puts
// the socket on the per-datagram path.
type passThrough struct{ live.UDPConn }

// A datagram the kernel refuses in the middle of a batch is counted
// like a failed per-datagram write and skipped; its neighbours go out.
// A v4 destination from a socket bound to ::1 is unreachable
// (ENETUNREACH) and nothing leaves the host.
func TestBatchedFlushSkipsARefusedDatagram(t *testing.T) {
	stats := make(map[bool]live.Stats)
	for _, batched := range []bool{true, false} {
		var opts []live.Option
		if !batched {
			opts = append(opts, live.WithSocketWrapper(func(_ int, c live.UDPConn) live.UDPConn { return &passThrough{c} }))
		}
		d, rx := loopbackPair(t, "::1", opts...)
		to := netem.Addr(rx.LocalAddr().(*net.UDPAddr).AddrPort().String())
		sendSeq(d, to, 1, 100)
		sendSeq(d, "127.0.0.1:9", 2, 100)
		sendSeq(d, to, 3, 100)
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := readSeqs(t, rx, 2); got[0] != 1 || got[1] != 3 {
			t.Fatalf("batched=%v: receiver got %v, want [1 3]", batched, got)
		}
		if d.Stats.PacketsOut != 2 || d.Stats.NoRoute != 1 || d.Stats.WriteErrors != 0 {
			t.Fatalf("batched=%v: Stats = %+v, want 2 out and 1 NoRoute", batched, d.Stats)
		}
		stats[batched] = d.Stats
	}
	if stats[true] != stats[false] {
		t.Fatalf("batched Stats %+v differ from per-datagram %+v", stats[true], stats[false])
	}
}

// Flushing onto a socket closed under the driver leaves the same Stats
// on the batched path as on the per-datagram one: every datagram is a
// write error, and the persistent-error ladder sees each of them. The
// one difference is a write: on an offloading build the ten datagrams
// are one run, whose refused write comes before one write each.
func TestBatchedFlushOnClosedSocketCountsLikePerDatagram(t *testing.T) {
	stats := make(map[bool]live.Stats)
	for _, batched := range []bool{true, false} {
		var raw live.UDPConn
		wrap := func(_ int, c live.UDPConn) live.UDPConn {
			raw = c
			if batched {
				return c
			}
			return &passThrough{c}
		}
		// No rebind: the dead socket must stay dead while the test looks.
		d, rx := loopbackPair(t, "127.0.0.1", live.WithSocketWrapper(wrap), live.WithRebind(0, 0))
		to := netem.Addr(rx.LocalAddr().(*net.UDPAddr).AddrPort().String())
		sendSeq(d, to, 0, 100) // binds the writer to the live socket
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		raw.Close()
		const n = 10
		for i := uint64(1); i <= n; i++ {
			sendSeq(d, to, i, 100)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if d.Stats.PacketsOut != 1 || d.Stats.WriteErrors != n {
			t.Fatalf("batched=%v: Stats = %+v, want 1 out and %d write errors", batched, d.Stats, n)
		}
		stats[batched] = d.Stats
	}
	want := stats[false]
	if offloadBuild {
		want.EgressWrites++
	}
	if stats[true] != want {
		t.Fatalf("batched Stats %+v, want the per-datagram %+v plus the refused run's write", stats[true], stats[false])
	}
}

// TestRawSocketDeathFailsOverAndRebinds is TestSocketDeathFailsOver-
// MidTransfer with the socket closed directly rather than through
// faultnet, so the sockets stay on the batched path: the reader's
// ladder rebinds the port, and the writer must follow the new conn.
func TestRawSocketDeathFailsOverAndRebinds(t *testing.T) {
	server := startGetServer(t, 2)
	var mu sync.Mutex
	first := map[int]live.UDPConn{}
	record := live.WithSocketWrapper(func(path int, c live.UDPConn) live.UDPConn {
		mu.Lock()
		defer mu.Unlock()
		if first[path] == nil {
			first[path] = c
		}
		return c
	})
	client := newChaosDriver(t, 2, record, live.WithRebind(4, 30*time.Millisecond))
	conn := dialOn(t, client, server, 2, 47)
	kill := time.AfterFunc(60*time.Millisecond, func() {
		mu.Lock()
		defer mu.Unlock()
		first[1].Close()
	})
	defer kill.Stop()

	const size = 128 << 20
	res, err := live.Download(client, conn, size, 60*time.Second)
	if err != nil {
		t.Fatalf("transfer did not survive losing a socket: %v", err)
	}
	if res.Size != size {
		t.Fatalf("Size = %d", res.Size)
	}
	st := client.Stats
	if st.SocketsDegraded == 0 || st.Rebinds == 0 || st.PathsFailedLive != 0 {
		t.Fatalf("want the killed socket degraded and rebound; Stats = %+v", st)
	}
	// One more datagram from the rebound socket: it goes out through a
	// writer bound to the new conn.
	client.Send(core.RawDatagram(client.LocalAddrs()[1], server.LocalAddrs()[1], make([]byte, 64)))
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if client.Stats.PacketsOut != st.PacketsOut+1 || client.Stats.WriteErrors != st.WriteErrors {
		t.Fatalf("write on the rebound socket failed: before %+v, after %+v", st, client.Stats)
	}
	if !live.WriterFollowsConn(client, 1) {
		t.Fatal("the egress writer still points at the conn the rebind replaced")
	}
}
