package live

// FuzzLiveIngress pushes arbitrary bytes through the same path a real
// read takes from a reader goroutine into the protocol: ingest → run
// cut into datagrams → handler HandleDatagram → wire decode. The
// properties under test are the live driver's corruption contract
// (fault.go): no input may panic the stack, every datagram of a run is
// counted in PacketsIn and BytesIn, every step's last datagram carries
// More=false, every run buffer comes back to its socket, and any
// datagram whose header does not even parse is counted as a corrupt
// drop rather than vanishing. Runs socket-free — the driver under test
// is a literal with a synthetic path slot, so the fuzzer needs no UDP
// permissions.

import (
	"bytes"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"mpquic/internal/core"
	"mpquic/internal/crypto"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/wire"
)

// socketlessDriver builds a minimal socket-less driver whose ingest
// path is fully functional — the real queue size, clock, run buffers —
// but with no bound socket and no reader goroutines: n path slots,
// built the way NewDriver builds them.
func socketlessDriver(n int) *Driver {
	d := &Driver{
		clock:     sim.NewClock(),
		remotes:   make(map[netem.Addr]netip.AddrPort),
		recvCh:    make(chan packetIn, recvQueueLen),
		wakeCh:    make(chan struct{}, 1),
		closeCh:   make(chan struct{}),
		addrNames: make(map[netip.AddrPort]netem.Addr),
		start:     time.Now(),
		started:   true,
	}
	for i := range n {
		d.socks = append(d.socks, &pathSocket{idx: i, local: netem.Addr(fmt.Sprintf("127.0.0.1:%d", 9+i))})
	}
	d.takeRunBufs()
	return d
}

// handOver does what a reader does with a read of data: it takes one
// of s's free run buffers, puts data in it as one read cut into
// seg-byte datagrams (seg 0: junk), and queues the read for the loop.
func handOver(t *testing.T, d *Driver, s *pathSocket, from netip.AddrPort, data []byte, seg int) {
	t.Helper()
	var rb *runBuf
	select {
	case rb = <-s.free:
	default:
		t.Fatal("no free run buffer: one was not handed back")
	}
	n, seg := cut(copy(rb.b[:], data), seg)
	rb.reads[0] = runRead{from: from, n: int32(n), seg: int32(seg)}
	rb.refs.Store(1)
	d.pending.Add(int64(rb.reads[0].datagrams()))
	d.recvCh <- packetIn{s: s, rb: rb}
}

// step runs the loop's ingest on what is queued, as Run would.
func step(d *Driver) error { return d.ingest(<-d.recvCh) }

// moreMarks forwards every datagram to h and notes its More mark.
type moreMarks struct {
	h           netem.Handler
	n, final    int  // datagrams seen, and those without More
	lastWasMore bool // the last one's mark
}

func (m *moreMarks) HandleDatagram(dg netem.Datagram) {
	m.n++
	if !dg.More {
		m.final++
	}
	m.lastWasMore = dg.More
	m.h.HandleDatagram(dg)
}

// fuzzIngressDriver is socketlessDriver with a listener registered on
// its path slot, behind a handler that notes the More marks.
func fuzzIngressDriver() (*Driver, *pathSocket, *core.Listener, *moreMarks) {
	d := socketlessDriver(1)
	s := d.socks[0]
	cfg := core.DefaultSinglePathConfig()
	cfg.MaxPaths = 1
	cfg.WireSerialization = true
	lis := core.Listen(d, cfg, []netem.Addr{s.local})
	marks := &moreMarks{h: lis}
	d.Register(s.local, marks)
	return d, s, lis, marks
}

// markedStep is step, checked against the More contract and the cap:
// the step's datagrams all go to one handler, so it delivers exactly
// one without More, its last; and its last read, of last datagrams,
// follows fewer than ingressBatchCap.
func markedStep(t *testing.T, d *Driver, m *moreMarks, last int) error {
	t.Helper()
	n, final := m.n, m.final
	err := step(d)
	if m.n > n && (m.lastWasMore || m.final != final+1) {
		t.Fatalf("a step of %d datagrams delivered %d without More, the last with More=%v; want one, the last", m.n-n, m.final-final, m.lastWasMore)
	}
	if m.n-n-last >= ingressBatchCap {
		t.Fatalf("a step of %d datagrams held %d before its last read; want fewer than %d", m.n-n, m.n-n-last, ingressBatchCap)
	}
	return err
}

// fuzzIngressSeeds is the seed corpus: packets a live peer would
// actually send (handshake CHLO, multipath stream data), plus
// truncated and bit-flipped variants of them — the exact shapes
// faultnet's corrupt injection produces.
func fuzzIngressSeeds() [][]byte {
	chlo := (&wire.Packet{
		Header: wire.Header{ConnID: 7, Handshake: true, PacketNumber: 1},
		Frames: []wire.Frame{&wire.HandshakeFrame{Message: wire.HandshakeCHLO, Payload: []byte("chlo")}},
	}).EncodeTo(nil, nil)
	data := (&wire.Packet{
		Header: wire.Header{ConnID: 7, Multipath: true, PathID: 0, PacketNumber: 2},
		Frames: []wire.Frame{&wire.StreamFrame{StreamID: 3, Data: []byte("GET 1024\n")}},
	}).EncodeTo(nil, nil)
	flipped := append([]byte(nil), chlo...)
	flipped[len(flipped)/2] ^= 0x40
	// One datagram delivering a stream the hostile way: out of order,
	// duplicated, partially overlapping, and past a FIN — what the
	// chunked reassembly (stream.RecvStream) has to absorb.
	payload := make([]byte, 600)
	reordered := (&wire.Packet{
		Header: wire.Header{ConnID: 7, PacketNumber: 3},
		Frames: []wire.Frame{
			&wire.StreamFrame{StreamID: 3, Offset: 400, Data: payload[:200]},
			&wire.StreamFrame{StreamID: 3, Offset: 0, Data: payload[:100]},
			&wire.StreamFrame{StreamID: 3, Offset: 50, Data: payload[:400]},
			&wire.StreamFrame{StreamID: 3, Offset: 400, Data: payload[:200], Fin: true},
			&wire.StreamFrame{StreamID: 3, Offset: 0, Data: payload[:100]},
			&wire.StreamFrame{StreamID: 3, Offset: 590, Data: payload[:20]},
		},
	}).EncodeTo(nil, nil)
	seeds := [][]byte{
		chlo,
		data,
		reordered,
		chlo[:len(chlo)/2],
		data[:1],
		flipped,
		{},
		{0xff},
	}
	return seeds
}

func FuzzLiveIngress(f *testing.F) {
	for _, s := range fuzzIngressSeeds() {
		f.Add(s)
	}
	// A CHLO the server accepts (the seed's four-byte one is refused).
	chlo := (&wire.Packet{
		Header: wire.Header{ConnID: 7, Handshake: true, PacketNumber: 1},
		Frames: []wire.Frame{&wire.HandshakeFrame{Message: wire.HandshakeCHLO, Payload: crypto.NewClientHandshake(1).CHLO()}},
	}).EncodeTo(nil, nil)
	f.Fuzz(func(t *testing.T, in []byte) {
		d, s, lis, marks := fuzzIngressDriver()
		from := netip.MustParseAddrPort("127.0.0.1:5000")
		// Open connection 7 first: only a handshake packet creates a
		// connection, and the input should reach the frame handlers of
		// an established one, not stop at the listener's door.
		handOver(t, d, s, from, chlo, len(chlo))
		if err := markedStep(t, d, marks, 1); err != nil || len(lis.Conns()) != 1 {
			t.Fatalf("set-up CHLO: err=%v, %d connections", err, len(lis.Conns()))
		}
		// A read of one datagram keeps what fits in netem.MTU bytes.
		in = in[:min(len(in), netem.MTU)]
		before := lis.CorruptDrops()
		handOver(t, d, s, from, in, len(in))
		if err := markedStep(t, d, marks, 1); err != nil {
			t.Fatalf("ingest returned a driver-fatal error for arbitrary input: %v", err)
		}
		if d.Stats.PacketsIn != 2 {
			t.Fatalf("PacketsIn = %d, want 2", d.Stats.PacketsIn)
		}
		// The corruption contract: a datagram whose header does not
		// parse must be dropped *and counted*, never lost silently.
		// (Inputs that parse further may still be counted by deeper
		// decode sites; this asserts the guaranteed lower bound.)
		if _, _, err := wire.ParseHeader(in, 0); err != nil {
			if lis.CorruptDrops() == before {
				t.Fatalf("unparsable header not counted as corrupt drop (input %x)", in)
			}
		}

		// The same bytes as runs: three whole segments and a short last
		// one, a segment size past the run's length, and junk. Each
		// datagram is counted once, with its length.
		run := append(bytes.Repeat(in, 3), in[:len(in)/2]...)
		for _, c := range []struct {
			data        []byte
			seg         int
			dgrams, len int
		}{
			{run, len(in), 3 + min(len(in)/2, 1), len(run)},
			{in, len(in) + 7, 1, len(in)},
			{run, 0, 1, 0},
		} {
			if len(c.data) == 0 {
				c.dgrams = 1 // an empty read is one empty datagram
			}
			st := d.Stats
			handOver(t, d, s, from, c.data, c.seg)
			if err := markedStep(t, d, marks, c.dgrams); err != nil {
				t.Fatalf("ingest returned a driver-fatal error for a run: %v", err)
			}
			if got, bytes := d.Stats.PacketsIn-st.PacketsIn, d.Stats.BytesIn-st.BytesIn; got != uint64(c.dgrams) || bytes != uint64(c.len) {
				t.Fatalf("a read of %d bytes in %d-byte segments: %d datagrams of %d bytes in, want %d of %d", len(c.data), c.seg, got, bytes, c.dgrams, c.len)
			}
		}
		if len(s.free) != runBufsPerSocket {
			t.Fatalf("%d of %d run buffers back", len(s.free), runBufsPerSocket)
		}
		// Any response the handler queued is discarded here — there is
		// no socket — and its batch buffer goes back to the free list.
		s.out.n = 0
		d.releaseEgress()
	})
}
