package recovery

import (
	"testing"
	"time"

	"mpquic/internal/perf"
	"mpquic/internal/rtt"
	"mpquic/internal/slab"
	"mpquic/internal/wire"
)

func newSpace() *Space {
	return NewSpace(rtt.New(rtt.DefaultQUIC()))
}

func sent(s *Space, size int, at time.Duration) *SentPacket {
	sp := &SentPacket{
		PN:              s.NextPacketNumber(),
		Size:            size,
		SentTime:        at,
		Retransmittable: true,
	}
	s.OnPacketSent(sp)
	return sp
}

// ackOf is the ACK of a receiver that got pns, in any order.
func ackOf(pns ...wire.PacketNumber) *wire.AckFrame {
	a := NewAckManager(0)
	for _, pn := range pns {
		a.OnPacketReceived(pn, true, 0)
	}
	return &wire.AckFrame{Ranges: a.held()}
}

func TestAckSettlesPacketsAndSamplesRTT(t *testing.T) {
	s := newSpace()
	sent(s, 1000, 0)
	sent(s, 1000, time.Millisecond)
	if s.BytesInFlight() != 2000 {
		t.Fatalf("in flight %d", s.BytesInFlight())
	}
	res := s.OnAck(ackOf(0, 1), 51*time.Millisecond)
	if len(res.NewlyAcked) != 2 || len(res.Lost) != 0 {
		t.Fatalf("acked %d lost %d", len(res.NewlyAcked), len(res.Lost))
	}
	if !res.HasRTTSample || res.SampleRTT != 50*time.Millisecond {
		t.Fatalf("rtt sample %v", res.SampleRTT)
	}
	if s.BytesInFlight() != 0 || s.HasRetransmittableInFlight() {
		t.Fatal("in-flight not cleared")
	}
	if s.RTT().SmoothedRTT() != 50*time.Millisecond {
		t.Fatalf("srtt %v", s.RTT().SmoothedRTT())
	}
}

func TestDuplicateAckIsIdempotent(t *testing.T) {
	s := newSpace()
	sent(s, 1000, 0)
	s.OnAck(ackOf(0), 10*time.Millisecond)
	res := s.OnAck(ackOf(0), 20*time.Millisecond)
	if len(res.NewlyAcked) != 0 || res.HasRTTSample {
		t.Fatal("duplicate ack re-processed")
	}
}

func TestPacketThresholdLoss(t *testing.T) {
	s := newSpace()
	for i := 0; i < 5; i++ {
		sent(s, 1000, 0)
	}
	// Ack 3 and 4 at now=50ms: srtt sample 50ms → time threshold
	// 56.25ms not yet reached, so only the packet threshold applies:
	// packets 0 and 1 are ≥3 below largest; packet 2 survives.
	res := s.OnAck(ackOf(3, 4), 50*time.Millisecond)
	if len(res.Lost) != 2 {
		t.Fatalf("lost %d, want 2", len(res.Lost))
	}
	if res.Lost[0].PN != 0 || res.Lost[1].PN != 1 {
		t.Fatalf("lost %v,%v", res.Lost[0].PN, res.Lost[1].PN)
	}
	if !res.CongestionEvent {
		t.Fatal("no congestion event")
	}
}

func TestOneCongestionEventPerWindow(t *testing.T) {
	s := newSpace()
	for i := 0; i < 10; i++ {
		sent(s, 1000, time.Duration(i)*time.Millisecond)
	}
	res1 := s.OnAck(ackOf(4), 20*time.Millisecond) // 0,1 lost
	if !res1.CongestionEvent {
		t.Fatal("first loss no event")
	}
	// Further losses among packets sent before the cutback: no event.
	res2 := s.OnAck(ackOf(4, 6), 25*time.Millisecond) // 2,3 lost
	if len(res2.Lost) == 0 {
		t.Fatal("expected more losses")
	}
	if res2.CongestionEvent {
		t.Fatal("second event within same window")
	}
}

func TestTimeThresholdLossViaTimer(t *testing.T) {
	s := newSpace()
	sent(s, 1000, 0)                  // pn 0
	sent(s, 1000, 1*time.Millisecond) // pn 1
	// Ack only pn 1; pn 0 is 1 below largest → not past packet
	// threshold, but the time threshold arms.
	res := s.OnAck(ackOf(1), 41*time.Millisecond)
	if len(res.Lost) != 0 {
		t.Fatal("lost too early")
	}
	lt := s.LossTime()
	if lt == 0 {
		t.Fatal("loss timer not armed")
	}
	// srtt = 40ms → threshold 45ms; pn0 sent at 0 → deadline 45ms.
	if lt != 45*time.Millisecond {
		t.Fatalf("loss time %v, want 45ms", lt)
	}
	lost, event := s.OnLossTimer(lt)
	if len(lost) != 1 || lost[0].PN != 0 || !event {
		t.Fatalf("timer loss: %v event=%v", lost, event)
	}
}

func TestRTODeclaresAllOutstandingLost(t *testing.T) {
	s := newSpace()
	for i := 0; i < 4; i++ {
		sent(s, 1000, 0)
	}
	rtoBefore := s.RTT().RTO()
	lost := s.OnRTO(500 * time.Millisecond)
	if len(lost) != 4 {
		t.Fatalf("lost %d", len(lost))
	}
	if s.BytesInFlight() != 0 {
		t.Fatal("in-flight after RTO")
	}
	if s.RTT().RTO() != 2*rtoBefore {
		t.Fatalf("no backoff: %v", s.RTT().RTO())
	}
	for i, sp := range lost {
		if sp.PN != wire.PacketNumber(i) {
			t.Fatalf("OnRTO returned packet %d at index %d, want send order", sp.PN, i)
		}
	}
	if again := s.OnRTO(time.Second); len(again) != 0 {
		t.Fatalf("second RTO re-declared %d already-lost packets", len(again))
	}
}

func TestAckAfterLossIsNoop(t *testing.T) {
	s := newSpace()
	for i := 0; i < 5; i++ {
		sent(s, 1000, 0)
	}
	res := s.OnAck(ackOf(4), 10*time.Millisecond) // 0,1 lost
	if len(res.Lost) != 2 {
		t.Fatalf("lost %d", len(res.Lost))
	}
	// Late ack for a lost packet: it's settled, no double accounting.
	res2 := s.OnAck(ackOf(0, 4), 15*time.Millisecond)
	if len(res2.NewlyAcked) != 0 {
		t.Fatal("lost packet newly acked")
	}
}

func TestOutstandingAndTrim(t *testing.T) {
	s := newSpace()
	for i := 0; i < 100; i++ {
		sent(s, 100, time.Duration(i)*time.Millisecond)
	}
	s.OnAck(&wire.AckFrame{Ranges: []wire.AckRange{{Smallest: 0, Largest: 89}}}, 200*time.Millisecond)
	out := s.Outstanding()
	if len(out) != 10 || out[0].PN != 90 {
		t.Fatalf("outstanding %d, first %v", len(out), out[0].PN)
	}
}

func TestMonotonicPNEnforced(t *testing.T) {
	s := newSpace()
	sp := &SentPacket{PN: 5, Size: 1}
	s.OnPacketSent(sp)
	defer func() {
		if recover() == nil {
			t.Fatal("non-monotonic PN accepted")
		}
	}()
	s.OnPacketSent(&SentPacket{PN: 5, Size: 1})
}

func TestAckManagerImmediateAckEverySecondPacket(t *testing.T) {
	a := NewAckManager(0)
	if a.Due(0) {
		t.Fatal("fresh manager wants ack")
	}
	a.OnPacketReceived(0, true, 0)
	if a.Due(0) {
		t.Fatal("ack after single packet")
	}
	if a.Deadline() != MaxAckDelay {
		t.Fatalf("deadline %v", a.Deadline())
	}
	a.OnPacketReceived(1, true, time.Millisecond)
	if !a.Due(time.Millisecond) {
		t.Fatal("no ack after 2 packets")
	}
}

func TestAckManagerDelayedAckDeadline(t *testing.T) {
	a := NewAckManager(0)
	a.OnPacketReceived(0, true, 10*time.Millisecond)
	if a.Due(20 * time.Millisecond) {
		t.Fatal("too early")
	}
	if !a.Due(10*time.Millisecond + MaxAckDelay) {
		t.Fatal("delayed ack never fires")
	}
}

func TestAckManagerOutOfOrderTriggersImmediateAck(t *testing.T) {
	a := NewAckManager(0)
	a.OnPacketReceived(5, true, 0)
	if !a.Due(0) {
		// First packet is pn 5 → largest==5, single range; but a gap
		// from 0 is unknowable. Receiving 3 after 5 must trigger.
		a.OnPacketReceived(3, true, time.Millisecond)
		if !a.Due(time.Millisecond) {
			t.Fatal("reordering did not trigger immediate ack")
		}
	}
}

func TestAckManagerBuildAckRangesAndDelay(t *testing.T) {
	a := NewAckManager(3)
	a.OnPacketReceived(0, true, 0)
	a.OnPacketReceived(1, true, time.Millisecond)
	a.OnPacketReceived(5, true, 2*time.Millisecond)
	ack := a.BuildAck(7 * time.Millisecond)
	if ack.PathID != 3 {
		t.Fatalf("path %d", ack.PathID)
	}
	if len(ack.Ranges) != 2 || ack.Ranges[0] != (wire.AckRange{Smallest: 5, Largest: 5}) ||
		ack.Ranges[1] != (wire.AckRange{Smallest: 0, Largest: 1}) {
		t.Fatalf("ranges %+v", ack.Ranges)
	}
	if ack.AckDelay != 5*time.Millisecond {
		t.Fatalf("delay %v", ack.AckDelay)
	}
	if err := ack.Validate(); err != nil {
		t.Fatal(err)
	}
	// Building resets policy state.
	if a.Due(100 * time.Millisecond) {
		t.Fatal("state not reset")
	}
}

func TestAckManagerDuplicateDetection(t *testing.T) {
	a := NewAckManager(0)
	if !a.OnPacketReceived(7, true, 0) {
		t.Fatal("first receive reported duplicate")
	}
	if a.OnPacketReceived(7, true, time.Millisecond) {
		t.Fatal("duplicate not detected")
	}
	if !a.IsDuplicate(7) || a.IsDuplicate(8) {
		t.Fatal("IsDuplicate broken")
	}
}

func TestAckManagerCapsRangesAt256(t *testing.T) {
	a := NewAckManager(0)
	for i := 0; i < 600; i += 2 {
		a.OnPacketReceived(wire.PacketNumber(i), true, 0)
	}
	ack := a.BuildAck(time.Millisecond)
	if len(ack.Ranges) != wire.MaxAckRanges {
		t.Fatalf("ranges %d", len(ack.Ranges))
	}
	if ack.LargestAcked() != 598 {
		t.Fatalf("largest %d", ack.LargestAcked())
	}
	if err := ack.Validate(); err != nil {
		t.Fatal(err)
	}

	// The manager itself keeps no more than a frame can report, however
	// long a peer goes on sending every other packet number. What it
	// forgot counts as received; a late packet above that is still
	// taken, without adding a range.
	for i := 600; i < 200_000; i += 2 {
		a.OnPacketReceived(wire.PacketNumber(i), true, 0)
	}
	if n := len(a.held()); n > wire.MaxAckRanges {
		t.Fatalf("%d ranges kept after 100k alternating packet numbers, want <= %d", n, wire.MaxAckRanges)
	}
	if ack := a.BuildAck(time.Millisecond); len(ack.Ranges) != wire.MaxAckRanges || ack.LargestAcked() != 199_998 {
		t.Fatalf("%d ranges, largest %d", len(ack.Ranges), ack.LargestAcked())
	}
	held := a.held()
	oldest := held[len(held)-1].Smallest
	for _, pn := range []wire.PacketNumber{0, 1, oldest - 3, oldest - 2} {
		if !a.IsDuplicate(pn) || a.OnPacketReceived(pn, true, 0) {
			t.Fatalf("packet %d, forgotten below the oldest range kept (%d), taken as new", pn, oldest)
		}
	}
	if !a.IsDuplicate(oldest) || a.IsDuplicate(oldest+1) || !a.OnPacketReceived(oldest+1, true, 0) {
		t.Fatalf("duplicate detection wrong around the oldest range kept (%d)", oldest)
	}
	if n := len(a.held()); n > wire.MaxAckRanges {
		t.Fatalf("%d ranges after late packets", n)
	}
}

func TestAckManagerLargestReceived(t *testing.T) {
	a := NewAckManager(0)
	if _, ok := a.LargestReceived(); ok {
		t.Fatal("fresh manager has largest")
	}
	a.OnPacketReceived(9, false, 0)
	a.OnPacketReceived(4, false, 0)
	if pn, ok := a.LargestReceived(); !ok || pn != 9 {
		t.Fatalf("largest %d ok=%v", pn, ok)
	}
}

func TestSpaceAccessors(t *testing.T) {
	s := newSpace()
	if s.LargestAcked() != wire.InvalidPacketNumber {
		t.Fatal("fresh space has largest acked")
	}
	if s.LargestSent() != 0 {
		t.Fatal("fresh space largest sent")
	}
	if _, ok := s.OldestUnackedSentTime(); ok {
		t.Fatal("fresh space has outstanding")
	}
	sent(s, 100, 5*time.Millisecond)
	sent(s, 100, 7*time.Millisecond)
	if s.LargestSent() != 2 {
		t.Fatalf("largest sent %d", s.LargestSent())
	}
	if ts, ok := s.OldestUnackedSentTime(); !ok || ts != 5*time.Millisecond {
		t.Fatalf("oldest %v ok=%v", ts, ok)
	}
	s.OnAck(ackOf(0), 20*time.Millisecond)
	if s.LargestAcked() != 0 {
		t.Fatalf("largest acked %v", s.LargestAcked())
	}
	if ts, _ := s.OldestUnackedSentTime(); ts != 7*time.Millisecond {
		t.Fatalf("oldest after ack %v", ts)
	}
}

func TestForceAckAndHasACKable(t *testing.T) {
	a := NewAckManager(0)
	a.ForceAck() // nothing received yet: must stay quiet
	if a.Due(0) {
		t.Fatal("ForceAck with nothing received queued an ack")
	}
	if a.HasACKablePackets() {
		t.Fatal("HasACKablePackets on empty manager")
	}
	a.OnPacketReceived(0, false, 0) // non-retransmittable: no ack owed
	if a.Due(time.Hour) {
		t.Fatal("non-retransmittable packet scheduled an ack")
	}
	a.ForceAck()
	if !a.Due(0) || !a.HasACKablePackets() {
		t.Fatal("ForceAck did not queue")
	}
}

// TestSparseAckAccounting: one ACK block in the middle of 200
// outstanding packets settles the block, declares everything below it
// lost by the packet threshold and leaves exactly the packets above it
// in flight.
func TestSparseAckAccounting(t *testing.T) {
	s := newSpace()
	for i := 0; i < 200; i++ {
		sent(s, 100, time.Duration(i)*time.Millisecond)
	}
	res := s.OnAck(&wire.AckFrame{Ranges: []wire.AckRange{{Smallest: 50, Largest: 180}}}, 300*time.Millisecond)
	if len(res.NewlyAcked) != 131 || len(res.Lost) != 50 {
		t.Fatalf("acked %d lost %d, want 131 and 50", len(res.NewlyAcked), len(res.Lost))
	}
	if got := len(s.Outstanding()); got != 19 {
		t.Fatalf("outstanding %d, want 19 (packets 181..199)", got)
	}
	if s.BytesInFlight() != 1900 {
		t.Fatalf("in flight %d", s.BytesInFlight())
	}
}

// checkSpaceOps runs the program in ops — sends (through OnPacketSent
// and RecordSent), sparse ACKs of any part of the outstanding window,
// loss timers, RTOs, and the end of the space's connection — and checks
// after every call that the in-flight accounting is what a recount
// finds and that at most PacketThreshold-1 settled packets wait behind
// an unsettled front: the bound that lets History trim only the front.
// The space draws from a free list it shares with the spaces that come
// after it: when its connection ends, Release must hand back exactly
// the records it held, and the next space runs on them, whatever the
// last one left in them.
func checkSpaceOps(t *testing.T, ops []byte) {
	t.Helper()
	next := func(n int) int {
		if len(ops) == 0 {
			return 0
		}
		v := int(ops[0])
		ops = ops[1:]
		return v % n
	}
	free := new(slab.List[SentPacket])
	s := NewSpaceOn(rtt.New(rtt.DefaultQUIC()), free)
	now := time.Duration(0)
	check := func(op string) {
		t.Helper()
		settled, inFlight, rtx := 0, 0, 0
		for _, sp := range s.history.Live() {
			if sp.Settled() {
				settled++
				continue
			}
			inFlight += sp.Size
			if sp.Retransmittable {
				rtx++
			}
		}
		if settled > PacketThreshold-1 {
			t.Fatalf("after %s: %d settled packets held in a history of %d, want <= %d",
				op, settled, len(s.history.Live()), PacketThreshold-1)
		}
		if inFlight != s.BytesInFlight() || (rtx > 0) != s.HasRetransmittableInFlight() {
			t.Fatalf("after %s: %d bytes in flight, %d retransmittable; Space says %d, %v",
				op, inFlight, rtx, s.BytesInFlight(), s.HasRetransmittableInFlight())
		}
	}
	for len(ops) > 0 {
		now += time.Duration(next(250)*8) * time.Microsecond
		switch op := next(21); {
		case op < 10:
			for i := next(40); i >= 0; i-- {
				if next(2) == 0 {
					sent(s, 1000, now)
				} else {
					s.RecordSent(s.NextPacketNumber(), nil, 1000, now)
				}
			}
			check("send")
		case op < 18:
			out := s.Outstanding()
			if len(out) == 0 {
				continue
			}
			// A few ranges anywhere in the outstanding window.
			var pns []wire.PacketNumber
			for r := next(3); r >= 0; r-- {
				at := next(len(out))
				for i := at; i < len(out) && i < at+1+next(30); i++ {
					pns = append(pns, out[i].PN)
				}
			}
			s.OnAck(ackOf(pns...), now)
			check("ack")
		case op < 19:
			s.OnLossTimer(now)
			check("loss timer")
		case op < 20:
			s.OnRTO(now)
			check("RTO")
		default:
			forget(t, s, free)
			s = NewSpaceOn(rtt.New(rtt.DefaultQUIC()), free)
			check("forget")
		}
	}
}

// forget releases s, whose connection has ended, and checks that its
// records, live and retired, are the ones that now wait on top of free.
func forget(t *testing.T, s *Space, free *slab.List[SentPacket]) {
	t.Helper()
	held := make(map[*SentPacket]bool)
	for _, sp := range append(s.history.Live(), s.history.retired...) {
		held[sp] = true
	}
	before := free.Len()
	s.Release()
	if got := free.Len() - before; got != len(held) {
		t.Fatalf("Release handed back %d records, the space held %d", got, len(held))
	}
	top := make([]*SentPacket, len(held))
	for i := range top {
		top[i] = free.Get()
		if !held[top[i]] {
			t.Fatalf("Release handed back %p, which the space did not hold", top[i])
		}
		delete(held, top[i])
	}
	for i := len(top) - 1; i >= 0; i-- {
		free.Put(top[i])
	}
	if len(s.history.Live()) != 0 || len(s.history.retired) != 0 {
		t.Fatal("a released space still holds records")
	}
}

// spaceProgram is n random bytes for checkSpaceOps.
func spaceProgram(seed uint64, n int) []byte {
	rnd := seed * 0x9e3779b97f4a7c15
	ops := make([]byte, n)
	for i := range ops {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		ops[i] = byte(rnd)
	}
	return ops
}

func TestSpaceHoldsFewSettledPackets(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		checkSpaceOps(t, spaceProgram(seed, 50_000))
	}
}

func FuzzSpaceHistory(f *testing.F) {
	f.Add(spaceProgram(1, 1000))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			return
		}
		checkSpaceOps(t, ops)
	})
}

// TestOnAckCostIndependentOfWindow: acknowledging one packet costs the
// same whether 64 or 8192 others are outstanding. A trim that recounts
// the window on every ACK reads about 100x here.
func TestOnAckCostIndependentOfWindow(t *testing.T) {
	if testing.Short() || perf.RaceEnabled {
		t.Skip("timing comparison")
	}
	perAck := func(window int) time.Duration {
		best := time.Duration(1 << 62)
		for rep := 0; rep < 5; rep++ {
			s := newSpace()
			for i := 0; i < window; i++ {
				s.RecordSent(s.NextPacketNumber(), nil, 1000, 0)
			}
			ack := &wire.AckFrame{Ranges: make([]wire.AckRange, 1)}
			const acks = 20000
			start := time.Now()
			for i := 0; i < acks; i++ {
				oldest := s.LargestSent() - wire.PacketNumber(window)
				ack.Ranges[0] = wire.AckRange{Smallest: oldest, Largest: oldest}
				s.OnAck(ack, time.Millisecond)
				s.RecordSent(s.NextPacketNumber(), nil, 1000, 0)
			}
			if d := time.Since(start) / acks; d < best {
				best = d
			}
		}
		return best
	}
	small, large := perAck(64), perAck(8192)
	t.Logf("per ACK: %v at 64 outstanding, %v at 8192", small, large)
	if large > 4*small {
		t.Fatalf("per-ACK cost grows with the window: %v at 64 outstanding, %v at 8192", small, large)
	}
}

// TestRecordSentOwnsItsStreamFrames: RecordSent keeps its own copy of
// every STREAM frame — two in the SentPacket itself, more on the heap —
// so the caller may rewrite the frames it passed (a connection builds
// the next packet in them) and the record still reads as sent. Frames
// that are not retransmittable are dropped, the others kept by
// reference.
func TestRecordSentOwnsItsStreamFrames(t *testing.T) {
	s := newSpace()
	scratch := []wire.StreamFrame{
		{StreamID: 3, Offset: 0, DataLen: 100},
		{StreamID: 5, Offset: 100, DataLen: 200},
		{StreamID: 7, Offset: 300, DataLen: 300, Fin: true},
	}
	ping := &wire.PingFrame{}
	frames := []wire.Frame{&wire.AckFrame{Ranges: []wire.AckRange{{}}}, &scratch[0], ping, &scratch[1], &scratch[2]}
	s.RecordSent(s.NextPacketNumber(), frames, 1000, 0)
	for i := range scratch {
		scratch[i] = wire.StreamFrame{StreamID: 99}
	}
	clear(frames)

	sp := s.Outstanding()[0]
	if len(sp.Frames) != 4 || sp.Frames[1] != wire.Frame(ping) {
		t.Fatalf("recorded %d frames %v, want the three STREAM frames and the PING", len(sp.Frames), sp.Frames)
	}
	for i, at := range []int{0, 2, 3} {
		f, ok := sp.Frames[at].(*wire.StreamFrame)
		if !ok {
			t.Fatalf("frame %d is a %T", at, sp.Frames[at])
		}
		want := wire.StreamFrame{StreamID: wire.StreamID(3 + 2*i), Offset: []uint64{0, 100, 300}[i], DataLen: 100 * (i + 1), Fin: i == 2}
		if f.StreamID != want.StreamID || f.Offset != want.Offset || f.Len() != want.DataLen || f.Fin != want.Fin {
			t.Errorf("STREAM frame %d reads %+v after the caller reused its own, want %+v", i, *f, want)
		}
		if f == &scratch[i] {
			t.Errorf("STREAM frame %d is the caller's", i)
		}
	}
}
