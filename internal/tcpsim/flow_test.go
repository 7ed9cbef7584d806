package tcpsim

import (
	"testing"
	"time"
	"unsafe"

	"mpquic/internal/cc"
	"mpquic/internal/netem"
	"mpquic/internal/recovery"
	"mpquic/internal/sim"
)

// The flow holds one Record per segment in flight; the DSS mapping must
// not push plain TCP's into a larger size class than it had.
func TestRecordStaysInTCPSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n > 64 {
		t.Fatalf("Record is %d bytes, want <= 64", n)
	}
}

// scoreboardModel is the naive reference TestFlowScoreboardModel holds
// the scoreboard to: the records the flow has not yet reported on (in
// transmission order), the outcome it reported for every other one,
// the cumulative ack, and SACK coverage as one bool per byte. It
// recounts everything from scratch after every step. The flow reuses a
// record once it is trimmed, so outcomes are keyed by TxSeq and lost
// records are kept as copies.
type scoreboardModel struct {
	t       *testing.T
	f       *Flow
	clock   *sim.Clock
	rng     *sim.Rand
	sent    int
	live    []*Record
	lost    []Record
	outcome map[uint64]string // by TxSeq: "acked" or "lost", once reported
	// handed is the lost list of the last OnAck or OnRTO, and handedAs
	// its records as they were handed out.
	handed   []*Record
	handedAs []Record
	cum      uint64
	sacked   []bool
	highest  uint64 // highest TxSeq among acked records
	hasAck   bool
}

func (m *scoreboardModel) tick() {
	d := time.Duration(1+m.rng.Intn(5)) * time.Millisecond
	if err := m.clock.RunUntil(m.clock.Now() + sim.Time(d)); err != nil {
		m.t.Fatal(err)
	}
}

func (m *scoreboardModel) send(start, end uint64, isRtx bool) {
	m.tick() // every record leaves at its own instant: RTT samples name their record
	r := m.f.Sent(start, end, isRtx, int(end-start)+headerBase)
	for i, h := range m.handed {
		if *h != m.handedAs[i] {
			m.t.Fatalf("lost record tx %d changed before the next OnAck or OnRTO: %+v, handed out as %+v", m.handedAs[i].TxSeq, *h, m.handedAs[i])
		}
	}
	m.live = append(m.live, r)
	m.sent++
	for uint64(len(m.sacked)) < end {
		m.sacked = append(m.sacked, false)
	}
}

// covered mirrors the coverage rule: below the cumulative ack, or
// wholly inside SACKed bytes above it.
func (m *scoreboardModel) covered(r *Record) bool {
	if r.SeqEnd <= m.cum {
		return true
	}
	if r.SeqStart >= r.SeqEnd || r.SeqStart < m.cum {
		return false
	}
	for b := r.SeqStart; b < r.SeqEnd; b++ {
		if !m.sacked[b] {
			return false
		}
	}
	return true
}

func (m *scoreboardModel) ack(seg *Segment) {
	m.tick()
	now := m.clock.Now().Duration()
	if seg.AckNum > m.cum {
		m.cum = seg.AckNum
	}
	for _, b := range seg.SACK {
		for i := b.Start; i < b.End; i++ {
			m.sacked[i] = true
		}
	}
	wantLatest := m.f.est.LatestRTT()
	wantProgress := false
	want := map[*Record]string{}
	for _, r := range m.live {
		if !m.covered(r) {
			continue
		}
		want[r] = "acked"
		wantProgress = true
		if !m.hasAck || r.TxSeq > m.highest {
			m.highest, m.hasAck = r.TxSeq, true
			if !r.IsRtx { // Karn: a retransmission never yields a sample
				wantLatest = now - r.sentTime
			}
		}
	}
	for _, r := range m.live {
		if want[r] == "" && m.hasAck && r.TxSeq+recovery.PacketThreshold <= m.highest {
			want[r] = "lost"
		}
	}

	progress, lost := m.f.OnAck(seg)
	if progress != wantProgress {
		m.t.Fatalf("progress = %v, want %v", progress, wantProgress)
	}
	if got := m.f.est.LatestRTT(); got != wantLatest {
		m.t.Fatalf("latest RTT sample %v, want %v", got, wantLatest)
	}
	m.report(lost, want)
}

func (m *scoreboardModel) rto() {
	m.tick()
	want := map[*Record]string{}
	for _, r := range m.live {
		want[r] = "lost"
	}
	m.report(m.f.OnRTO(), want)
}

// report checks what the flow decided in one step against want and
// books it: every record is reported once, acked or lost, never both.
func (m *scoreboardModel) report(lost []*Record, want map[*Record]string) {
	m.handed, m.handedAs = lost, m.handedAs[:0]
	reportedLost := map[*Record]bool{}
	for _, r := range lost {
		m.handedAs = append(m.handedAs, *r)
		if m.outcome[r.TxSeq] != "" {
			m.t.Fatalf("record tx %d reported lost after being %s", r.TxSeq, m.outcome[r.TxSeq])
		}
		if reportedLost[r] {
			m.t.Fatalf("record tx %d reported lost twice in one step", r.TxSeq)
		}
		reportedLost[r] = true
	}
	stillLive := m.live[:0]
	for _, r := range m.live {
		got := ""
		switch {
		case reportedLost[r]:
			got = "lost"
		case r.settled:
			got = "acked"
		}
		if got != want[r] {
			m.t.Fatalf("record tx %d [%d,%d) rtx=%v: flow says %q, model %q (cum %d)",
				r.TxSeq, r.SeqStart, r.SeqEnd, r.IsRtx, got, want[r], m.cum)
		}
		switch got {
		case "":
			stillLive = append(stillLive, r)
			continue
		case "lost":
			if !r.settled {
				m.t.Fatalf("record tx %d reported lost but left unsettled", r.TxSeq)
			}
			m.lost = append(m.lost, *r)
		}
		m.outcome[r.TxSeq] = got
	}
	m.live = stillLive
}

// recount checks the flow's running counters against a recount.
func (m *scoreboardModel) recount() {
	kept := map[*Record]bool{}
	for _, r := range m.f.Records() {
		kept[r] = true
	}
	// What lets the History trim only the settled front: FACK marking
	// leaves fewer than recovery.PacketThreshold settled records behind it.
	settledKept := 0
	for r := range kept {
		if r.settled {
			settledKept++
		}
	}
	if settledKept >= recovery.PacketThreshold {
		m.t.Fatalf("%d settled records linger in a scoreboard of %d", settledKept, len(kept))
	}
	inFlight, liveRtx := 0, 0
	for _, r := range m.live {
		if r.settled {
			m.t.Fatalf("record tx %d settled outside OnAck/OnRTO", r.TxSeq)
		}
		inFlight += r.WireSize
		if r.IsRtx {
			liveRtx++
		}
		if !kept[r] {
			m.t.Fatalf("trim dropped unsettled record tx %d", r.TxSeq)
		}
	}
	if m.f.bytesInFlight != inFlight {
		m.t.Fatalf("bytesInFlight = %d, recount %d", m.f.bytesInFlight, inFlight)
	}
	if m.f.liveRtx != liveRtx {
		m.t.Fatalf("liveRtx = %d, recount %d", m.f.liveRtx, liveRtx)
	}
}

// randomAck builds an ack the way a lossy, reordering network delivers
// them: the cumulative ack may be stale, current, on a record boundary
// or inside a record; up to three SACK blocks may repeat, arrive in
// any order and lie below the cumulative ack.
func (m *scoreboardModel) randomAck() *Segment {
	sent := m.f.SndNxt()
	point := func() uint64 {
		if m.rng.Bernoulli(0.7) && len(m.live) > 0 {
			r := m.live[m.rng.Intn(len(m.live))]
			if m.rng.Bernoulli(0.5) {
				return r.SeqStart
			}
			return r.SeqEnd
		}
		if m.rng.Bernoulli(0.3) { // stale: below the cumulative ack
			return m.cum - uint64(m.rng.Intn(int(min(m.cum, 4*MSS))+1))
		}
		return m.cum + uint64(m.rng.Intn(int(sent-m.cum)+1))
	}
	seg := &Segment{ACK: true, AckNum: m.cum}
	switch m.rng.Intn(4) {
	case 0: // stale
		seg.AckNum = uint64(m.rng.Intn(int(m.cum) + 1))
	case 1: // advance
		if p := point(); p > m.cum {
			seg.AckNum = p
		}
	}
	for n := m.rng.Intn(MaxSACKBlocks + 1); n > 0; n-- {
		a, b := point(), point()
		if a > b {
			a, b = b, a
		}
		if a == b {
			continue
		}
		seg.SACK = append(seg.SACK, SACKBlock{Start: a, End: b})
		if m.rng.Bernoulli(0.2) {
			seg.SACK = append(seg.SACK, seg.SACK[m.rng.Intn(len(seg.SACK))]) // duplicate
		}
	}
	if len(seg.SACK) > MaxSACKBlocks {
		seg.SACK = seg.SACK[:MaxSACKBlocks]
	}
	return seg
}

// checkScoreboard drives the send scoreboard both stacks run — no
// network, no owner — through steps random sends, retransmissions,
// acks and RTO collapses drawn from seed, and holds it to the naive
// model after every step. It returns the model for its counts.
func checkScoreboard(t *testing.T, seed uint64, steps int) *scoreboardModel {
	clock := sim.NewClock()
	nw := netem.New(clock, sim.NewRand(seed))
	cub := cc.NewCubic(MSS, func() time.Duration { return clock.Now().Duration() })
	m := &scoreboardModel{
		t:       t,
		f:       NewFlow(nw, 0, "c:1", "s:1", cub, false, func(*Segment) {}),
		clock:   clock,
		rng:     sim.NewRand(seed * 977),
		outcome: map[uint64]string{},
	}
	for step := 0; step < steps; step++ {
		switch op := m.rng.Intn(100); {
		case op < 45: // fresh data, often a burst, now and then a window's worth
			n := 1 + m.rng.Intn(4)
			if m.rng.Bernoulli(0.02) {
				n = 30 + m.rng.Intn(60)
			}
			for ; n > 0; n-- {
				next := m.f.SndNxt()
				m.send(next, next+uint64(1+m.rng.Intn(MSS)), false)
			}
		case op < 60: // retransmit a lost record, whole or its first half
			if len(m.lost) == 0 {
				continue
			}
			r := m.lost[m.rng.Intn(len(m.lost))]
			end := r.SeqEnd
			if m.rng.Bernoulli(0.3) && end-r.SeqStart > 1 {
				end = r.SeqStart + (end-r.SeqStart)/2
			}
			m.send(r.SeqStart, end, true)
		case op < 97:
			m.ack(m.randomAck())
		default:
			m.rto()
		}
		m.recount()
	}
	return m
}

func TestFlowScoreboardModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		m := checkScoreboard(t, seed, 3000)
		if len(m.lost) < 100 || m.f.Stats.Retransmits < 100 || m.sent < 1000 {
			t.Fatalf("seed %d exercised too little: %d records, %d lost, %d retransmissions",
				seed, m.sent, len(m.lost), m.f.Stats.Retransmits)
		}
	}
}

func FuzzFlowScoreboard(f *testing.F) {
	f.Add(uint64(1))
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkScoreboard(t, seed, 300)
	})
}
