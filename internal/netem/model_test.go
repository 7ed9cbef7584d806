package netem

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"mpquic/internal/sim"
)

// The link model test: one program of link operations runs against the
// ring Link and against refLink — the link as it was built before the
// ring, a pooled record and two clock events of its own per datagram —
// each on a clock of its own. Both sides must deliver and drop the same
// datagrams in the same order at the same instants, interleaved the
// same way with unrelated events, and agree after every step on Stats,
// queue occupancy, the clock's Processed count and NextDeadline.

// refLink is the reference link: every datagram in flight is a record
// with two events on the clock, one as it leaves the serializer and
// one as it arrives.
type refLink struct {
	clock      *sim.Clock
	rand       *sim.Rand
	cfg        LinkConfig
	rateBps    float64
	queueCap   int
	queueBytes int
	busyUntil  sim.Time
	deliver    func(dg Datagram)
	dropped    func(dg Datagram)
	down       bool
	lossModel  LossModel
	free       []*refPkt
	Stats      LinkStats
}

// refPkt carries one datagram through the reference's two events, with
// both callbacks bound once.
type refPkt struct {
	l         *refLink
	dg        Datagram
	finishFn  func()
	deliverFn func()
}

func newRefLink(clock *sim.Clock, rand *sim.Rand, cfg LinkConfig, deliver, dropped func(Datagram)) *refLink {
	l := &refLink{clock: clock, rand: rand, cfg: cfg, deliver: deliver, dropped: dropped}
	l.SetRate(cfg.RateMbps)
	return l
}

func (l *refLink) getPkt(dg Datagram) *refPkt {
	if n := len(l.free); n > 0 {
		p := l.free[n-1]
		l.free = l.free[:n-1]
		p.dg = dg
		return p
	}
	p := &refPkt{l: l, dg: dg}
	p.finishFn = p.finish
	p.deliverFn = p.deliverNow
	return p
}

func (l *refLink) putPkt(p *refPkt) {
	p.dg = Datagram{}
	l.free = append(l.free, p)
}

func (p *refPkt) finish() {
	l := p.l
	l.queueBytes -= p.dg.Size
	var lost bool
	if l.lossModel != nil {
		lost = l.lossModel.Drop(p.dg.Size)
	} else {
		lost = l.cfg.LossRate > 0 && l.rand.Bernoulli(l.cfg.LossRate)
	}
	if lost {
		l.Stats.RandomDrops++
		dg := p.dg
		l.putPkt(p)
		l.dropped(dg)
		return
	}
	l.clock.At(l.clock.Now().Add(l.cfg.Delay), p.deliverFn)
}

func (p *refPkt) deliverNow() {
	l := p.l
	dg := p.dg
	l.putPkt(p)
	l.deliver(dg)
}

func (l *refLink) SetRate(mbps float64) {
	l.cfg.RateMbps = mbps
	l.rateBps = mbps * 1e6 / 8
	l.queueCap = max(int(l.rateBps*l.cfg.QueueDelay.Seconds()), 2*MTU)
}

func (l *refLink) SetDown(down bool)        { l.down = down }
func (l *refLink) SetLossModel(m LossModel) { l.lossModel = m }

func (l *refLink) Send(dg Datagram) {
	if l.down {
		l.Stats.RandomDrops++
		l.dropped(dg)
		return
	}
	if l.queueBytes+dg.Size > l.queueCap {
		l.Stats.QueueDrops++
		l.dropped(dg)
		return
	}
	l.queueBytes += dg.Size
	start := max(l.busyUntil, l.clock.Now())
	finish := start.Add(time.Duration(float64(dg.Size) / l.rateBps * float64(time.Second)))
	l.busyUntil = finish
	l.clock.At(finish, l.getPkt(dg).finishFn)
}

// --- programs ---

// linkTick is the time unit of a program. At 8 Mbit/s a 100-byte step
// in size is one tick of serialization, so deadlines collide often.
const linkTick = 100 * time.Microsecond

// linkScripts is the number of callback scripts unrelated events draw
// from; linkBudget bounds the callbacks that still act, so programs
// that send from a sink terminate.
const (
	linkScripts = 4
	linkBudget  = 300
)

type linkOpKind uint8

const (
	lopSend     linkOpKind = iota // one datagram of 100–1500 bytes
	lopBurst                      // 2–6 back-to-back datagrams, to hit tail drop
	lopRate                       // SetRate
	lopDown                       // SetDown
	lopLoss                       // SetLossModel: nil or a seeded model
	lopAt                         // an unrelated event running a script, at a near instant
	lopRunUntil                   // top level only
	lopRun                        // top level only
	numLinkOps
)

type linkOp struct {
	kind linkOpKind
	arg  int
}

var (
	modelRates  = [...]float64{8, 12, 2, 100, 0.9}
	modelDelays = [...]time.Duration{0, linkTick, 7 * linkTick, 1234 * time.Microsecond}
	modelLoss   = [...]float64{0, 0.2, 0.5}
	modelQueues = [...]time.Duration{0, 2 * time.Millisecond, 10 * time.Millisecond}
)

// linkProgram is what a fuzz input decodes to.
type linkProgram struct {
	cfg     LinkConfig
	scripts [linkScripts][]linkOp
	top     []linkOp
}

// decodeLinkProgram reads the link's configuration (four bytes), the
// scripts (a length byte, then two bytes per op), then top-level ops
// until the input ends. Missing bytes read as zero.
func decodeLinkProgram(data []byte) linkProgram {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var p linkProgram
	p.cfg = LinkConfig{
		RateMbps:   modelRates[next()%len(modelRates)],
		Delay:      modelDelays[next()%len(modelDelays)],
		LossRate:   modelLoss[next()%len(modelLoss)],
		QueueDelay: modelQueues[next()%len(modelQueues)],
	}
	readOp := func(nested bool) linkOp {
		kinds := int(numLinkOps)
		if nested {
			kinds = int(lopRunUntil) // a callback cannot re-enter Run
		}
		return linkOp{kind: linkOpKind(next() % kinds), arg: next()}
	}
	for i := range p.scripts {
		for n := next() % 4; n > 0; n-- {
			p.scripts[i] = append(p.scripts[i], readOp(true))
		}
	}
	for len(data) > 0 {
		p.top = append(p.top, readOp(false))
	}
	return p
}

// seededLoss is a loss model both sides build from the same seed.
type seededLoss struct {
	r *sim.Rand
	p float64
}

func (m *seededLoss) Drop(int) bool { return m.r.Bernoulli(m.p) }

// linkEvent is one thing a program observes: a datagram delivered or
// dropped, or an unrelated event running.
type linkEvent struct {
	what string
	id   int
	now  sim.Time
}

// linkUnderTest is what Link and refLink share.
type linkUnderTest interface {
	Send(Datagram)
	SetRate(float64)
	SetDown(bool)
	SetLossModel(LossModel)
}

// linkSide is one side of the twin run: a clock, a link, and the log of
// what the program saw.
type linkSide struct {
	p          *linkProgram
	clock      *sim.Clock
	link       linkUnderTest
	stats      *LinkStats
	queueBytes *int
	log        []linkEvent
	nextID     int
	budget     int
}

func newLinkSide(p *linkProgram, ref bool) *linkSide {
	s := &linkSide{p: p, clock: sim.NewClock(), budget: linkBudget}
	rand := sim.NewRand(5)
	if ref {
		l := newRefLink(s.clock, rand, p.cfg, s.delivered, s.dropped)
		s.link, s.stats, s.queueBytes = l, &l.Stats, &l.queueBytes
	} else {
		l := NewLink(s.clock, rand, "model", p.cfg, s.delivered)
		l.dropped = s.dropped
		s.link, s.stats, s.queueBytes = l, &l.Stats, &l.queueBytes
	}
	return s
}

func (s *linkSide) record(what string, id int) {
	s.log = append(s.log, linkEvent{what, id, s.clock.Now()})
}

// delivered records an arrival; every seventh datagram's sink sends
// another on the same link from inside the delivery.
func (s *linkSide) delivered(dg Datagram) {
	id := int(dg.Payload.(testPayload))
	s.record("deliver", id)
	if id%7 == 3 && s.spend() {
		s.send(100 * (1 + id%15))
	}
}

func (s *linkSide) dropped(dg Datagram) { s.record("drop", int(dg.Payload.(testPayload))) }

func (s *linkSide) spend() bool {
	s.budget--
	return s.budget >= 0
}

func (s *linkSide) send(size int) {
	id := s.nextID
	s.nextID++
	s.link.Send(Datagram{From: "a", To: "b", Size: size, Payload: testPayload(id)})
}

func (s *linkSide) apply(o linkOp) error {
	switch o.kind {
	case lopSend:
		s.send(100 * (1 + o.arg%15))
	case lopBurst:
		for i := 0; i < 2+o.arg%5; i++ {
			s.send(MTU - 100*(i%3))
		}
	case lopRate:
		s.link.SetRate(modelRates[o.arg%len(modelRates)])
	case lopDown:
		s.link.SetDown(o.arg%2 == 1)
	case lopLoss:
		if o.arg%3 == 0 {
			s.link.SetLossModel(nil)
		} else {
			s.link.SetLossModel(&seededLoss{r: sim.NewRand(uint64(o.arg)), p: 0.3})
		}
	case lopAt:
		id := s.nextID
		s.nextID++
		script := s.p.scripts[o.arg/8%linkScripts]
		s.clock.At(s.clock.Now().Add(time.Duration(o.arg%8)*linkTick), func() {
			s.record("event", id)
			if !s.spend() {
				return
			}
			for _, o := range script {
				s.apply(o) // nested ops never return an error
			}
		})
	case lopRunUntil:
		return s.clock.RunUntil(s.clock.Now().Add(time.Duration(o.arg%10) * linkTick))
	case lopRun:
		return s.clock.Run()
	}
	return nil
}

// checkLinkProgram runs data's program on both sides and compares them
// after every top-level operation, then runs both to exhaustion.
func checkLinkProgram(t *testing.T, data []byte) {
	t.Helper()
	p := decodeLinkProgram(data)
	ring, ref := newLinkSide(&p, false), newLinkSide(&p, true)
	compared := 0
	step := func(i int, o linkOp) sim.Time {
		errRing, errRef := ring.apply(o), ref.apply(o)
		if errRing != nil || errRef != nil {
			t.Fatalf("op %d %+v: ring err %v, ref err %v", i, o, errRing, errRef)
		}
		where := fmt.Sprintf("config %+v, after op %d %+v", p.cfg, i, o)
		if a, b := ring.log[compared:], ref.log[compared:]; !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: logs differ after %d equal entries\nring %v\nref  %v", where, compared, a, b)
		}
		compared = len(ring.log)
		if *ring.stats != *ref.stats || *ring.queueBytes != *ref.queueBytes {
			t.Fatalf("%s: stats %+v/%+v queue %d/%d (ring/ref)", where, *ring.stats, *ref.stats, *ring.queueBytes, *ref.queueBytes)
		}
		if a, b := ring.clock.Processed, ref.clock.Processed; a != b {
			t.Fatalf("%s: processed %d/%d (ring/ref)", where, a, b)
		}
		next := ring.clock.NextDeadline()
		if refNext := ref.clock.NextDeadline(); next != refNext {
			t.Fatalf("%s: NextDeadline %v/%v (ring/ref)", where, next, refNext)
		}
		return next
	}
	next := sim.Time(0)
	for i, o := range p.top {
		next = step(i, o)
	}
	if next != sim.Never {
		next = step(len(p.top), linkOp{kind: lopRun})
	}
	if next != sim.Never {
		t.Fatalf("clock not drained by Run: next deadline %v", next)
	}
	if l := ring.link.(*Link); l.head != l.tail || l.mid != l.tail {
		t.Fatalf("drained link's ring holds head %d mid %d tail %d", l.head, l.mid, l.tail)
	}
}

// linkSeeds are programs worth starting from: a zero-delay link (an
// arrival due at the instant its datagram leaves the serializer), a
// burst into a lossy link with unrelated events at the same instants,
// a rate cut and an outage behind a standing queue.
var linkSeeds = [][]byte{
	nil,
	{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 1, 9, 6, 3},
	{0, 2, 2, 1, 2, 5, 0, 0, 0, 0, 0, 1, 0, 7, 5, 8, 1, 4, 0, 6, 2, 7, 0},
	{1, 1, 1, 1, 1, 0, 3, 0, 0, 0, 1, 2, 1, 2, 2, 4, 3, 1, 5, 3, 2, 0, 6, 5, 1, 6, 9, 7, 0},
}

// TestLinkModel runs the seeds and a few thousand generated programs.
func TestLinkModel(t *testing.T) {
	for _, s := range linkSeeds {
		checkLinkProgram(t, s)
	}
	rng := sim.NewRand(1)
	for i := 0; i < 2000; i++ {
		data := make([]byte, 20+rng.Intn(160))
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		checkLinkProgram(t, data)
	}
}

// FuzzLinkOps is TestLinkModel with the fuzzer writing the programs.
func FuzzLinkOps(f *testing.F) {
	for _, s := range linkSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		checkLinkProgram(t, data)
	})
}
