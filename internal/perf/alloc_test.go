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
	"mpquic/internal/recovery"
	"mpquic/internal/sim"
	"mpquic/internal/stream"
	"mpquic/internal/wire"
)

// Allocation budgets for the per-packet hot paths. These pin the wins
// of the allocation diet: a regression that re-introduces per-packet
// garbage fails here long before it shows up in grid wall-clock time.

// samplePayloadLen sizes SamplePacket's stream data so the whole
// packet lands at wire.MaxPacketSize, like a cwnd-limited sender's.
func samplePayloadLen() int {
	probe := SamplePacket(nil)
	overhead := len(probe.EncodeTo(nil, nil))
	sf := probe.Frames[len(probe.Frames)-1].(*wire.StreamFrame)
	return sf.MaxStreamDataLen(wire.MaxPacketSize - (overhead - sf.EncodedSize()))
}

func TestPacketEncodeAllocFree(t *testing.T) {
	pkt := SamplePacket(make([]byte, samplePayloadLen()))
	buf := make([]byte, 0, netem.MTU)
	allocs := testing.AllocsPerRun(100, func() {
		buf = pkt.EncodeTo(buf[:0], nil)
	})
	if allocs > 0 {
		t.Errorf("EncodeTo into a reused buffer allocates %.1f/op, want 0", allocs)
	}
}

// TestStreamFillerAppendAllocFree pins the nil-Data STREAM payload (the
// GET server's filler) to zero allocations when the buffer has room:
// the bytes come from a shared array, one copy per slice of it.
func TestStreamFillerAppendAllocFree(t *testing.T) {
	f := &wire.StreamFrame{StreamID: 1, Offset: 1 << 20, DataLen: 3001}
	buf := make([]byte, 0, f.EncodedSize())
	allocs := testing.AllocsPerRun(100, func() {
		if b := f.Append(buf[:0]); len(b) != f.EncodedSize() {
			t.Fatalf("Append wrote %d bytes, want %d", len(b), f.EncodedSize())
		}
	})
	if allocs > 0 {
		t.Errorf("nil-Data STREAM Append allocates %.1f/op, want 0", allocs)
	}
}

func TestPacketDecodeAllocBudget(t *testing.T) {
	pkt := SamplePacket(make([]byte, samplePayloadLen()))
	enc := pkt.EncodeTo(nil, nil)
	// The allocating wrapper: one block for the Packet, its FrameArena
	// and the first ACK and STREAM frame, then the Ranges slice and the
	// control frame — but no payload copies. The connection's own
	// decode is DecodeInto, budgeted at zero below.
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
	sf.Data = make([]byte, sf.MaxStreamDataLen(wire.MaxPacketSize-(len(pkt.EncodeTo(nil, nil))-sf.EncodedSize())))
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
	enc := dataPacket().EncodeTo(nil, nil)
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

// TestDenseAckCodecAllocFree: a 91-range ACK, the mean on the wire-mode
// benchmark (sim_wire_crypto), encodes into a reused buffer and decodes
// into a warmed FrameArena without allocating.
func TestDenseAckCodecAllocFree(t *testing.T) {
	ack := &wire.AckFrame{PathID: 1, AckDelay: time.Millisecond}
	largest := wire.PacketNumber(10_000)
	for i := 0; i < 91; i++ {
		r := wire.AckRange{Smallest: largest - wire.PacketNumber(i%20), Largest: largest}
		ack.Ranges = append(ack.Ranges, r)
		largest = r.Smallest - 2 - wire.PacketNumber(i%3)
	}
	pkt := &wire.Packet{Header: SamplePacket(nil).Header, LargestAcked: 9_950, Frames: []wire.Frame{ack}}
	buf := make([]byte, 0, netem.MTU)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = pkt.EncodeTo(buf[:0], nil)
	}); allocs > 0 {
		t.Errorf("EncodeTo of a 91-range ACK into a reused buffer allocates %.1f/op, want 0", allocs)
	}

	enc := pkt.EncodeTo(nil, nil)
	var (
		rx      wire.Packet
		scratch wire.FrameArena
	)
	decode := func() {
		if err := wire.DecodeInto(&rx, &scratch, enc, 9_999, nil); err != nil {
			t.Fatal(err)
		}
		if n := len(rx.Frames[0].(*wire.AckFrame).Ranges); n != 91 {
			t.Fatalf("decoded %d ranges, want 91", n)
		}
	}
	decode() // size the arena and the ACK's ranges
	if allocs := testing.AllocsPerRun(100, decode); allocs > 0 {
		t.Errorf("DecodeInto of a 91-range ACK allocates %.1f/op, want 0", allocs)
	}
}

func TestSealOpenInPlaceAllocFree(t *testing.T) {
	seal, open := testSealers(t)
	pkt := dataPacket()
	sealed := pkt.EncodeTo(nil, seal)
	buf := make([]byte, 0, netem.MTU)
	allocs := testing.AllocsPerRun(100, func() {
		buf = pkt.EncodeTo(buf[:0], seal)
	})
	if allocs > 0 {
		t.Errorf("EncodeTo + in-place seal into a reused buffer allocates %.1f/op, want 0", allocs)
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
	if c.Processed != k-1 {
		t.Errorf("%d events executed, want %d", c.Processed, k-1)
	}
}

func TestIntervalSetEditsAllocFree(t *testing.T) {
	var s, have stream.IntervalSet
	for i := uint64(0); i < 8; i++ {
		have.Add(i*100+20, i*100+50)
	}
	edit := func() {
		for i := uint64(0); i < 32; i++ {
			s.Add(i*10, i*10+4) // disjoint: inserts
		}
		s.Add(0, 100)      // merges ten intervals
		s.Remove(40, 60)   // splits one in two
		s.Remove(500, 600) // overlaps nothing
		s.Remove(0, 1<<20)
		s.AddMissing(0, 1000, &have) // the nine gaps around have
		s.Remove(0, 1<<20)
		// A queue that drains to empty and refills, as a retransmission
		// queue does: each Pop that empties the set must leave the
		// backing array whole for the next Add.
		for i := uint64(0); i < 64; i++ {
			s.Add(i, i+10)
			s.Pop(100)
		}
	}
	edit() // grow the backing array once
	if allocs := testing.AllocsPerRun(100, edit); allocs > 0 {
		t.Errorf("IntervalSet.Add/Remove/AddMissing/Pop allocate %.1f/op once capacity exists, want 0", allocs)
	}
}

// TestRecvStreamReassemblyAllocFree: once the chunk pool holds a
// stream's reordering span, taking frames out of order (each pair
// swapped, so the second fills a hole; now and then one straddles a
// chunk boundary) and reading them back in the chunk-capped loop the
// applications run allocates nothing: a chunk the read offset passes
// goes back to the pool, and the next one comes from it.
func TestRecvStreamReassemblyAllocFree(t *testing.T) {
	if RaceEnabled {
		t.Skip("sync.Pool drops a quarter of what is put back under -race, on purpose")
	}
	data := make([]byte, 1350)
	r := stream.NewRecvStream(3)
	var (
		off  uint64
		a, b wire.StreamFrame
	)
	deliver := func() {
		for i := 0; i < 32; i++ {
			a = wire.StreamFrame{StreamID: 3, Offset: off + 1350, Data: data}
			b = wire.StreamFrame{StreamID: 3, Offset: off, Data: data}
			if _, err := r.OnFrame(&a); err != nil {
				t.Fatal(err)
			}
			if _, err := r.OnFrame(&b); err != nil {
				t.Fatal(err)
			}
			for n := r.Readable(); n > 0; n = r.Readable() {
				r.Read(n)
			}
			off += 2700
		}
	}
	deliver() // the pool and the stream's chunk list grow to the span
	if allocs := testing.AllocsPerRun(100, deliver); allocs > 0 {
		t.Errorf("reordered OnFrame and Read allocate %.1f per 64 frames once the pool holds the span, want 0", allocs)
	}
}

// TestAckManagerSteadyStateAllocFree: once a receiver holds
// wire.MaxAckRanges ranges, taking packets — in order, after a hole
// (which forgets the oldest range), reordered into a hole — and building
// ACKs into the path's frame allocates nothing.
func TestAckManagerSteadyStateAllocFree(t *testing.T) {
	a := recovery.NewAckManager(0)
	for pn := wire.PacketNumber(0); pn < 4*wire.MaxAckRanges; pn += 2 {
		a.OnPacketReceived(pn, true, 0)
	}
	pn := wire.PacketNumber(4*wire.MaxAckRanges + 1)
	var f wire.AckFrame
	receive := func() {
		for i := 0; i < 16; i++ {
			a.OnPacketReceived(pn, true, 0)   // a new top range, two PNs above the last
			a.OnPacketReceived(pn+1, true, 0) // in order
			a.OnPacketReceived(pn-2, true, 0) // reordered: half the hole below
			pn += 4
			if a.BuildAckInto(&f, time.Millisecond) == 0 || len(f.Ranges) != wire.MaxAckRanges {
				t.Fatalf("ACK of %d ranges, want %d", len(f.Ranges), wire.MaxAckRanges)
			}
		}
	}
	receive() // size the ranges' backing array and the frame's
	if allocs := testing.AllocsPerRun(100, receive); allocs > 0 {
		t.Errorf("AckManager at %d ranges allocates %.1f per 48 packets and 16 ACKs, want 0", wire.MaxAckRanges, allocs)
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

// transferScenario is the two-path network of the transfer budgets.
var transferScenario = expdesign.Scenario{
	Class: "perf",
	Paths: [2]netem.PathSpec{
		{CapacityMbps: 20, RTT: 20 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
		{CapacityMbps: 10, RTT: 40 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
	},
}

// transferMallocsPerPacket runs run, a whole 8 MiB download over
// transferScenario, and returns the heap allocations it made per data
// packet the server sent: everything — set-up, handshake, what grows
// with the windows — spread over the packets.
func transferMallocsPerPacket(t *testing.T, run func() expdesign.RunResult) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := run()
	runtime.ReadMemStats(&after)
	if !res.Completed || res.Metrics.PacketsSent == 0 {
		t.Fatalf("transfer did not complete: %+v", res)
	}
	perPkt := float64(after.Mallocs-before.Mallocs) / float64(res.Metrics.PacketsSent)
	t.Logf("%.2f mallocs per server data packet (%d packets)", perPkt, res.Metrics.PacketsSent)
	return perPkt
}

// mpquicTransfer is the MPQUIC download of the transfer budgets under cfg.
func mpquicTransfer(cfg core.Config) func() expdesign.RunResult {
	return func() expdesign.RunResult { return expdesign.RunMPQUICVariant(transferScenario, cfg, 8<<20, 0, 7) }
}

// stackTransfer is the same download over one of the grids' stacks.
func stackTransfer(proto expdesign.Protocol) func() expdesign.RunResult {
	return func() expdesign.RunResult { return expdesign.Run(transferScenario, proto, 8<<20, 0, 7) }
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
		p.Return()
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
// while every timer re-arm still took a fresh event, 1.4 while the
// stream allocated every STREAM frame for recovery to keep, and 0.17
// while each record, carrier and event of the first window was an
// allocation of its own; with those in slabs it reads about 0.10, none
// of it per packet. The budget, about 1.5 times that, leaves room for
// noise, not for a per-packet allocation site coming back. Under -race
// sync.Pool drops a quarter of what is put back, on purpose — netem's
// datagram bytes and stream's chunks — and the transfer reads about
// 0.57: that build keeps a budget of 1.
func TestWireCryptoTransferAllocBudget(t *testing.T) {
	budget := 0.16
	if RaceEnabled {
		budget = 1
	}
	cfg := core.DefaultConfig()
	cfg.WireSerialization = true
	cfg.EnableCrypto = true
	if perPkt := transferMallocsPerPacket(t, mpquicTransfer(cfg)); perPkt > budget {
		t.Errorf("wire+AEAD transfer allocates %.2f/packet, budget %v", perPkt, budget)
	}
}

// TestStructTransferAllocBudget is the same gate for struct mode, the
// mode every grid runs: packets travel in carriers the network lends and
// takes back, so the transfer allocates what is in flight at its peak,
// not what it sends, and that in slabs. This read 5.6 while every packet
// was copied out into fresh memory, 0.40 while each lost frame built a
// temporary interval set and 0.21 while each record and carrier was an
// allocation of its own; it now reads about 0.11.
func TestStructTransferAllocBudget(t *testing.T) {
	const budget = 0.17
	if perPkt := transferMallocsPerPacket(t, mpquicTransfer(core.DefaultConfig())); perPkt > budget {
		t.Errorf("struct-mode transfer allocates %.2f/packet, budget %v", perPkt, budget)
	}
}

// TestTCPTransferAllocBudget is the struct-mode gate for the TCP
// baseline: its flow lends segments that the network returns, builds
// SACK blocks inside them and recycles the records it trims from its
// scoreboard. This read 2.8 while each of those was allocated per
// segment, and 0.09 while each record and segment of the first window
// was still one allocation; with both in slabs it reads about 0.04.
func TestTCPTransferAllocBudget(t *testing.T) {
	const budget = 0.055
	if perPkt := transferMallocsPerPacket(t, stackTransfer(expdesign.ProtoTCP)); perPkt > budget {
		t.Errorf("TCP transfer allocates %.2f/packet, budget %v", perPkt, budget)
	}
}

// TestMPTCPTransferAllocBudget is the same gate for MPTCP, whose
// subflows are the same flows, and whose scheduler ranks subflows in
// connection scratch. This read 22.6 while the scheduler built two
// slices, and sorted through a reflection swapper, on every call, and
// 0.15 before records and segments came in slabs; it now reads about
// 0.06.
func TestMPTCPTransferAllocBudget(t *testing.T) {
	const budget = 0.085
	if perPkt := transferMallocsPerPacket(t, stackTransfer(expdesign.ProtoMPTCP)); perPkt > budget {
		t.Errorf("MPTCP transfer allocates %.2f/packet, budget %v", perPkt, budget)
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
				buf := pkt.EncodeTo(netem.RawBuffer(), nil)
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
