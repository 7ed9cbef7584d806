package live

// FuzzLiveIngress pushes arbitrary bytes through the same path a real
// datagram takes from a reader goroutine into the protocol: ingest →
// handler HandleDatagram → wire decode. The properties under test are
// the live driver's corruption contract (fault.go): no input may panic
// the stack, every pooled buffer is recycled, and any datagram whose
// header does not even parse is counted as a corrupt drop rather than
// vanishing. Runs socket-free — the driver under test is a literal with
// a synthetic path slot, so the fuzzer needs no UDP permissions.

import (
	"net/netip"
	"testing"
	"time"

	"mpquic/internal/core"
	"mpquic/internal/crypto"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/wire"
)

// fuzzIngressDriver builds a minimal socket-less driver whose ingest
// path is fully functional: batch scratch, clock and a registered
// listener handler, but no binder and no reader goroutines.
func fuzzIngressDriver() (*Driver, *pathSocket, *core.Listener) {
	d := &Driver{
		clock:      sim.NewClock(),
		handlers:   make(map[netem.Addr]netem.Handler),
		recvCh:     make(chan packetIn, 4),
		wakeCh:     make(chan struct{}, 1),
		closeCh:    make(chan struct{}),
		inBatch:    make([]packetIn, 0, 4),
		deliveries: make([]delivery, 4),
		lastFor:    make([]netem.Handler, 0, 1),
		addrNames:  make(map[netip.AddrPort]netem.Addr),
		sockFailed: make([]bool, 1),
		writeFails: make([]int, 1),
		start:      time.Now(),
		started:    true,
	}
	s := &pathSocket{idx: 0, local: "127.0.0.1:9"}
	cfg := core.DefaultSinglePathConfig()
	cfg.MaxPaths = 1
	cfg.WireSerialization = true
	lis := core.Listen(d, cfg, []netem.Addr{s.local})
	return d, s, lis
}

// fuzzIngressSeeds is the seed corpus: packets a live peer would
// actually send (handshake CHLO, multipath stream data), plus
// truncated and bit-flipped variants of them — the exact shapes
// faultnet's corrupt injection produces.
func fuzzIngressSeeds() [][]byte {
	chlo := (&wire.Packet{
		Header: wire.Header{ConnID: 7, Handshake: true, PacketNumber: 1},
		Frames: []wire.Frame{&wire.HandshakeFrame{Message: wire.HandshakeCHLO, Payload: []byte("chlo")}},
	}).Encode(nil)
	data := (&wire.Packet{
		Header: wire.Header{ConnID: 7, Multipath: true, PathID: 0, PacketNumber: 2},
		Frames: []wire.Frame{&wire.StreamFrame{StreamID: 3, Data: []byte("GET 1024\n")}},
	}).Encode(nil)
	flipped := append([]byte(nil), chlo...)
	flipped[len(flipped)/2] ^= 0x40
	// One datagram delivering a stream the hostile way: out of order,
	// duplicated, partially overlapping, and past a FIN — what the
	// sliding reassembly window (stream.RecvStream) has to absorb.
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
	}).Encode(nil)
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
	}).Encode(nil)
	f.Fuzz(func(t *testing.T, in []byte) {
		d, s, lis := fuzzIngressDriver()
		from := netip.MustParseAddrPort("127.0.0.1:5000")
		// Open connection 7 first: only a handshake packet creates a
		// connection, and the input should reach the frame handlers of
		// an established one, not stop at the listener's door.
		hello := append(wire.GetPacketBuf(), chlo...)
		if err := d.ingest(packetIn{s: s, from: from, buf: hello}); err != nil || len(lis.Conns()) != 1 {
			t.Fatalf("set-up CHLO: err=%v, %d connections", err, len(lis.Conns()))
		}
		// A pooled buffer, exactly as readOne hands them over: a read
		// keeps what fits.
		buf := wire.GetPacketBuf()
		if len(in) > cap(buf) {
			in = in[:cap(buf)]
		}
		buf = append(buf, in...)

		before := lis.CorruptDrops()
		if err := d.ingest(packetIn{s: s, from: from, buf: buf}); err != nil {
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
		// Any response the handler queued is discarded here — there is
		// no socket — but the buffers must still return to the pool.
		for i := range d.egress {
			wire.PutPacketBuf(d.egress[i].Raw)
		}
	})
}
