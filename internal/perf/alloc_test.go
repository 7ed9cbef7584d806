package perf

import (
	"runtime"
	"testing"
	"time"

	"mpquic/internal/cc"
	"mpquic/internal/core"
	"mpquic/internal/crypto"
	"mpquic/internal/expdesign"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/stream"
	"mpquic/internal/wire"
)

// Allocation budgets for the per-packet hot paths. These pin the wins
// of the allocation diet: a regression that re-introduces per-packet
// garbage fails here long before it shows up in grid wall-clock time.

func TestPacketEncodeAllocFree(t *testing.T) {
	pkt := SamplePacket(make([]byte, SamplePayloadLen()))
	allocs := testing.AllocsPerRun(100, func() {
		buf := pkt.EncodeTo(wire.GetPacketBuf(), nil)
		wire.PutPacketBuf(buf)
	})
	if allocs > 0 {
		t.Errorf("pooled encode allocates %.1f/op, want 0", allocs)
	}
}

func TestPacketDecodeAllocBudget(t *testing.T) {
	pkt := SamplePacket(make([]byte, SamplePayloadLen()))
	enc := pkt.Encode(nil)
	// The allocating wrapper: a fresh Packet, the frame structs and the
	// pre-sized Frames/Ranges slices — but no payload copies. The
	// connection's own decode is DecodeInto, budgeted at zero below.
	const budget = 6
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := wire.DecodeBorrowed(enc, 9_999, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("borrowed decode allocates %.1f/op, budget %d", allocs, budget)
	}
}

func TestClockScheduleRunAllocFree(t *testing.T) {
	c := sim.NewClock()
	fn := func() {}
	// Warm the event free list and the heap backing array.
	for j := 0; j < 64; j++ {
		c.After(time.Duration(j%8)*time.Microsecond, fn)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for j := 0; j < 64; j++ {
			c.After(time.Duration(j%8)*time.Microsecond, fn)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state Clock.At+Run allocates %.1f/op, want 0", allocs)
	}
}

// dataPacket is the steady-state shape of a transfer in flight, and
// what the zero budgets below are about: an ACK with a few ranges plus
// a full-MTU stream frame. (SamplePacket's WINDOW_UPDATE is a rare
// control frame; those may allocate.)
func dataPacket() *wire.Packet {
	pkt := SamplePacket(nil)
	sf := pkt.Frames[2].(*wire.StreamFrame)
	pkt.Frames = []wire.Frame{pkt.Frames[0], sf}
	sf.Data = make([]byte, sf.MaxStreamDataLen(wire.MaxPacketSize-(pkt.EncodedSize()-sf.EncodedSize())))
	return pkt
}

// testSealers returns a sealing and an opening Sealer over one key.
func testSealers(t *testing.T) (seal, open wire.Sealer) {
	t.Helper()
	k := crypto.DeriveKeys([]byte("alloc budget"), "s2c")
	s, err := crypto.NewSealer(k, true)
	if err != nil {
		t.Fatal(err)
	}
	o, err := crypto.NewSealer(k, true)
	if err != nil {
		t.Fatal(err)
	}
	return s, o
}

func TestDecodeIntoAllocFree(t *testing.T) {
	enc := dataPacket().Encode(nil)
	var (
		pkt     wire.Packet
		scratch wire.FrameArena
	)
	decode := func() {
		if err := wire.DecodeInto(&pkt, &scratch, enc, 9_999, nil); err != nil {
			t.Fatal(err)
		}
		if len(pkt.Frames) != 2 {
			t.Fatalf("decoded %d frames", len(pkt.Frames))
		}
	}
	decode() // size the Frames slice, the arena and the ACK ranges
	if allocs := testing.AllocsPerRun(100, decode); allocs > 0 {
		t.Errorf("steady-state DecodeInto allocates %.1f/op, want 0", allocs)
	}
}

func TestSealOpenInPlaceAllocFree(t *testing.T) {
	seal, open := testSealers(t)
	pkt := dataPacket()
	sealed := pkt.Encode(seal)
	allocs := testing.AllocsPerRun(100, func() {
		buf := pkt.EncodeTo(wire.GetPacketBuf(), seal)
		wire.PutPacketBuf(buf)
	})
	if allocs > 0 {
		t.Errorf("pooled encode + in-place seal allocates %.1f/op, want 0", allocs)
	}

	var (
		rx      wire.Packet
		scratch wire.FrameArena
	)
	dgram := make([]byte, len(sealed))
	decode := func() {
		copy(dgram, sealed) // the in-place open consumes the datagram
		if err := wire.DecodeInto(&rx, &scratch, dgram, 9_999, open); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(100, decode); allocs > 0 {
		t.Errorf("in-place open + DecodeInto allocates %.1f/op, want 0", allocs)
	}
}

// A timer owns at most one queue entry however often it is re-armed,
// and re-arming it costs no allocation: k timers moved 100 000 times —
// later, earlier, onto each other's deadlines — leave k entries.
func TestTimerResetAllocFree(t *testing.T) {
	const k = 5
	c := sim.NewClock()
	var timers [k]*sim.Timer
	for i := range timers {
		timers[i] = sim.NewTimer(c, func() {})
	}
	n := 0
	rearm := func() {
		for i := 0; i < 1000; i++ {
			// Deadlines wander within a second; consecutive re-arms
			// of different timers often land on the same one.
			n++
			at := c.Now() + sim.Time(1+n*7919%1000/k)*sim.Time(time.Millisecond)
			timers[n%k].Reset(at)
		}
	}
	rearm() // fill the clock's event free list and size the heap
	if allocs := testing.AllocsPerRun(100, rearm); allocs > 0 {
		t.Errorf("Timer.Reset allocates %.1f per 1000 re-arms, want 0", allocs)
	}
	if got := c.Pending(); got != k {
		t.Errorf("Pending() = %d after %d re-arms of %d timers, want %d", got, n, k, k)
	}
	timers[0].Stop()
	if got := c.Pending(); got != k-1 {
		t.Errorf("Pending() = %d after stopping one of %d timers, want %d", got, k, k-1)
	}
	// The timers still fire, once each, at the deadline set last.
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Processed != k-1 || c.Discarded != 0 {
		t.Errorf("%d events executed and %d discarded, want %d and 0", c.Processed, c.Discarded, k-1)
	}
}

func TestIntervalSetEditsAllocFree(t *testing.T) {
	var s stream.IntervalSet
	edit := func() {
		for i := uint64(0); i < 32; i++ {
			s.Add(i*10, i*10+4) // disjoint: inserts
		}
		s.Add(0, 100)      // merges ten intervals
		s.Remove(40, 60)   // splits one in two
		s.Remove(500, 600) // overlaps nothing
		s.Remove(0, 1<<20)
	}
	edit() // grow the backing array once
	if allocs := testing.AllocsPerRun(100, edit); allocs > 0 {
		t.Errorf("IntervalSet.Add/Remove allocate %.1f/op once capacity exists, want 0", allocs)
	}
}

func TestOliaOnPacketAckedAllocFree(t *testing.T) {
	o := cc.NewOlia(wire.MaxPacketSize)
	p0, p1 := o.AddPath(), o.AddPath()
	p0.OnCongestionEvent() // leave slow start: the coupled increase runs
	p1.OnCongestionEvent()
	allocs := testing.AllocsPerRun(100, func() {
		p0.OnPacketAcked(wire.MaxPacketSize, 20*time.Millisecond)
		p1.OnPacketAcked(wire.MaxPacketSize, 40*time.Millisecond)
	})
	if allocs > 0 {
		t.Errorf("Olia OnPacketAcked allocates %.1f/op, want 0", allocs)
	}
}

// transferMallocsPerPacket runs a whole two-path 8 MiB MPQUIC download
// over netem under cfg and returns the heap allocations it made per data
// packet the server sent: everything — set-up, handshake, what grows
// with the windows — spread over the packets.
func transferMallocsPerPacket(t *testing.T, cfg core.Config) float64 {
	t.Helper()
	sc := expdesign.Scenario{
		Class: "perf",
		Paths: [2]netem.PathSpec{
			{CapacityMbps: 20, RTT: 20 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
			{CapacityMbps: 10, RTT: 40 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
		},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := expdesign.RunMPQUICVariant(sc, cfg, 8<<20, 0, 7)
	runtime.ReadMemStats(&after)
	if !res.Completed || res.Metrics.PacketsSent == 0 {
		t.Fatalf("transfer did not complete: %+v", res)
	}
	perPkt := float64(after.Mallocs-before.Mallocs) / float64(res.Metrics.PacketsSent)
	t.Logf("%.2f mallocs per server data packet (%d packets)", perPkt, res.Metrics.PacketsSent)
	return perPkt
}

// TestStructCarrierAllocFree covers struct mode's two per-packet sites:
// building a STREAM frame in the caller's storage, and copying a data
// packet into a carrier that has been out before.
func TestStructCarrierAllocFree(t *testing.T) {
	pkt := dataPacket()
	var pool wire.PacketPool
	fill := func() {
		p := pool.Get()
		p.Fill(pkt.Header, pkt.LargestAcked, pkt.Frames)
		pool.Put(p)
	}
	fill() // one carrier, its ACK ranges sized
	if allocs := testing.AllocsPerRun(100, fill); allocs > 0 {
		t.Errorf("Fill into a pooled carrier allocates %.1f/op, want 0", allocs)
	}

	s := stream.NewSendStream(3)
	s.WriteSynthetic(1 << 30)
	var f wire.StreamFrame
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := s.NextFrameInto(&f, wire.MaxPacketSize, 1<<30); !ok {
			t.Fatal("no frame")
		}
	})
	if allocs > 0 {
		t.Errorf("NextFrameInto allocates %.1f/op, want 0", allocs)
	}
}

// TestWireCryptoTransferAllocBudget is the end-to-end gate over all of
// the above: wire serialization and AEAD on — the live packet path minus
// the kernel. Before the allocation-free packet path this read 46, 3.4
// while every timer re-arm still took a fresh event, and 1.4 while the
// stream allocated every STREAM frame for recovery to keep; it now reads
// about 0.4, none of it per packet. The budget leaves room for noise,
// not for a per-packet allocation site coming back.
func TestWireCryptoTransferAllocBudget(t *testing.T) {
	const budget = 1
	cfg := core.DefaultConfig()
	cfg.WireSerialization = true
	cfg.EnableCrypto = true
	if perPkt := transferMallocsPerPacket(t, cfg); perPkt > budget {
		t.Errorf("wire+AEAD transfer allocates %.2f/packet, budget %d", perPkt, budget)
	}
}

// TestStructTransferAllocBudget is the same gate for struct mode, the
// mode every grid runs: packets travel in carriers the network lends and
// takes back, so the transfer allocates what is in flight at its peak,
// not what it sends. This read 5.6 while every packet was copied out
// into fresh memory; it now reads about 0.25.
func TestStructTransferAllocBudget(t *testing.T) {
	const budget = 0.5
	if perPkt := transferMallocsPerPacket(t, core.DefaultConfig()); perPkt > budget {
		t.Errorf("struct-mode transfer allocates %.2f/packet, budget %v", perPkt, budget)
	}
}

// TestUnconsumedDatagramRecyclesAllocFree pins the buffer-ownership
// rule on the exits where no frame is ever consumed: the carrier, not
// the handler, hands the buffer back, so a pooled datagram that meets
// a closed connection, a listener that cannot parse its header, no
// handler at all, or a link that drops it (down, full queue, loss draw)
// still returns to the pool. A handler that was expected to recycle
// would leak one 1500-byte buffer per datagram here, and so did every
// link drop until the network took those back too.
func TestUnconsumedDatagramRecyclesAllocFree(t *testing.T) {
	clock := sim.NewClock()
	nw := netem.New(clock, sim.NewRand(1))
	link := netem.LinkConfig{RateMbps: 1000, Delay: time.Millisecond, QueueDelay: time.Second}
	nw.Connect("c:1", "s:443", link)
	nw.Connect("c:1", "nobody:9", link)
	down, _ := nw.Connect("c:1", "down:9", link)
	down.SetDown(true)
	lossy := link
	lossy.LossRate = 1
	nw.Connect("c:1", "lossy:9", lossy)
	// Room for two full datagrams: of three sent at once the last is
	// dropped.
	nw.Connect("c:1", "narrow:9", netem.LinkConfig{RateMbps: 1000, QueueDelay: 0})

	cfg := core.DefaultSinglePathConfig()
	cfg.WireSerialization = true
	lis := core.Listen(nw, cfg, []netem.Addr{"s:443"})
	closed := core.Dial(nw, cfg, 5, []netem.Addr{"c:1"}, []netem.Addr{"s:443"})
	closed.Close()
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if !closed.Closed() || len(lis.Conns()) != 0 {
		t.Fatalf("set-up: closed=%v, %d server connections left", closed.Closed(), len(lis.Conns()))
	}

	pkt := dataPacket()
	for _, tc := range []struct {
		name     string
		from, to netem.Addr
		corrupt  bool
		burst    int
	}{
		{"closed connection", "s:443", "c:1", false, 1},
		{"corrupt header", "c:1", "s:443", true, 1},
		{"no handler", "c:1", "nobody:9", false, 1},
		{"link down", "c:1", "down:9", false, 1},
		{"random loss", "c:1", "lossy:9", false, 1},
		{"queue overflow", "c:1", "narrow:9", false, 3},
	} {
		send := func() {
			for i := 0; i < tc.burst; i++ {
				buf := pkt.EncodeTo(wire.GetPacketBuf(), nil)
				if tc.corrupt {
					buf = buf[:1] // the flags byte promises a header that is not there
				}
				nw.Send(core.RawDatagram(tc.from, tc.to, buf))
			}
			if err := clock.Run(); err != nil {
				t.Fatal(err)
			}
		}
		drops := lis.CorruptDrops()
		allocs := testing.AllocsPerRun(100, send)
		if allocs > 0 {
			t.Errorf("%s: %.1f allocs per datagram, want 0 (the buffer did not return to the pool)", tc.name, allocs)
		}
		if tc.corrupt && lis.CorruptDrops() != drops+101 {
			t.Errorf("%s: CorruptDrops %d -> %d over 101 datagrams", tc.name, drops, lis.CorruptDrops())
		}
	}
}
