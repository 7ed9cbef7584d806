package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// The clock model test: one program of clock operations runs against the
// real Clock and against refClock, a reference that keeps a plain slice
// sorted by (at, seq) and re-arms a timer the plain way — mark the
// pending event dead, leave it queued, schedule a new one. A key the
// program reserves takes the sequence an event scheduled then would
// have taken, and arming a timer with it later schedules the timer's
// event at that (at, seq). Both sides must execute the same events in
// the same order at the same instants and agree on everything the API
// lets a caller observe.

// modelTimers is the number of timers a program drives.
const modelTimers = 3

// modelKeys is the number of reserved keys a program holds at once.
const modelKeys = 3

// modelScripts is the number of distinct callback scripts plain events
// draw from (event id modulo modelScripts).
const modelScripts = 8

// modelBudget bounds the callbacks that still run their script, so a
// script that re-schedules itself at the current instant terminates.
const modelBudget = 400

type opKind uint8

const (
	opAt opKind = iota // schedule a plain event at an absolute tick (may be in the past)
	opAfter
	opReset
	opResetAfter
	opStopTimer
	opNextDeadline
	opStopClock
	opKey      // reserve a key arg ticks from now into slot k
	opResetKey // arm timer k with the key in slot arg, once
	opRunUntil // top level only
	opRun      // top level only
	numOps
)

type op struct {
	kind opKind
	arg  int // ticks
	k    int // timer
}

// tick is the time unit of a program: small, so deadlines collide often.
const tick = Time(time.Millisecond)

// program is what a fuzz input decodes to.
type program struct {
	scripts  [modelScripts][]op // run by plain events when they fire
	tscripts [modelTimers][]op  // run by timers when they fire
	top      []op
}

// decodeProgram reads scripts (a length byte, then two bytes per op),
// then top-level ops until the input ends. Missing bytes read as zero.
func decodeProgram(data []byte) program {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	readOp := func(nested bool) op {
		kinds := int(numOps)
		if nested {
			kinds = int(opRunUntil) // a callback cannot re-enter Run
		}
		b := next()
		return op{kind: opKind(b % kinds), k: b / kinds % modelTimers, arg: next() % 12}
	}
	var p program
	for i := range p.scripts {
		for n := next() % 4; n > 0; n-- {
			p.scripts[i] = append(p.scripts[i], readOp(true))
		}
	}
	for i := range p.tscripts {
		for n := next() % 4; n > 0; n-- {
			p.tscripts[i] = append(p.tscripts[i], readOp(true))
		}
	}
	for len(data) > 0 {
		p.top = append(p.top, readOp(false))
	}
	return p
}

// fired is one executed callback as a caller sees it.
type fired struct {
	id        int // plain event id, or -(k+1) for timer k
	now       Time
	deadlines [modelTimers]Time // each timer's Deadline() inside the callback
}

// world is the API surface a program and its callbacks drive,
// implemented by the real clock and by the reference.
type world interface {
	now() Time
	schedule(at Time) // plain event with the next id
	scheduleAfter(d time.Duration)
	reset(k int, at Time)
	resetAfter(k int, d time.Duration)
	stopTimer(k int) bool
	nextDeadline() Time
	stopClock()
	// reserve fills key slot j; resetKey arms timer k with it and
	// empties the slot, reporting whether the deadline had passed and
	// the call panicked.
	reserve(j int, at Time)
	resetKey(k, j int) (panicked bool)
	runUntil(deadline Time) error
	run() error
	deadline(k int) Time
}

// runner holds what both worlds share: the program and the next
// plain-event id.
type runner struct {
	p      program
	w      world
	nextID int
	budget int
	fires  []fired
	// reserved marks the key slots holding a key not yet armed;
	// panics counts the ResetKey calls that panicked.
	reserved [modelKeys]bool
	panics   int
}

func (r *runner) apply(o op) error {
	w := r.w
	switch o.kind {
	case opAt:
		w.schedule(Time(o.arg) * tick)
	case opAfter:
		w.scheduleAfter(time.Duration(o.arg) * tick.Duration())
	case opReset:
		w.reset(o.k, Time(o.arg)*tick)
	case opResetAfter:
		w.resetAfter(o.k, time.Duration(o.arg)*tick.Duration())
	case opStopTimer:
		w.stopTimer(o.k)
	case opNextDeadline:
		w.nextDeadline()
	case opStopClock:
		w.stopClock()
	case opKey:
		w.reserve(o.k, w.now()+Time(o.arg)*tick)
		r.reserved[o.k] = true
	case opResetKey:
		if j := o.arg % modelKeys; r.reserved[j] {
			r.reserved[j] = false
			if w.resetKey(o.k, j) {
				r.panics++
			}
		}
	case opRunUntil:
		return w.runUntil(w.now() + Time(o.arg)*tick)
	case opRun:
		return w.run()
	}
	return nil
}

// onFire is every callback's body: record, then run the script.
func (r *runner) onFire(id int) {
	f := fired{id: id, now: r.w.now()}
	for k := range f.deadlines {
		f.deadlines[k] = r.w.deadline(k)
	}
	r.fires = append(r.fires, f)
	var script []op
	if id < 0 {
		script = r.p.tscripts[-id-1]
	} else {
		script = r.p.scripts[id%modelScripts]
	}
	if r.budget <= 0 {
		return
	}
	r.budget--
	for _, o := range script {
		r.apply(o) // nested ops never return an error
	}
}

func (r *runner) newID() int {
	id := r.nextID
	r.nextID++
	return id
}

// --- the real clock ---

type realWorld struct {
	*runner
	c      *Clock
	timers [modelTimers]*Timer
	keys   [modelKeys]Key
}

func newRealWorld(p program) *realWorld {
	w := &realWorld{runner: &runner{p: p, budget: modelBudget}, c: NewClock()}
	w.w = w
	for k := range w.timers {
		k := k
		w.timers[k] = NewTimer(w.c, func() { w.onFire(-(k + 1)) })
	}
	return w
}

func (w *realWorld) now() Time { return w.c.Now() }
func (w *realWorld) schedule(at Time) {
	id := w.newID()
	w.c.At(at, func() { w.onFire(id) })
}
func (w *realWorld) scheduleAfter(d time.Duration) {
	id := w.newID()
	w.c.After(d, func() { w.onFire(id) })
}
func (w *realWorld) reset(k int, at Time)              { w.timers[k].Reset(at) }
func (w *realWorld) resetAfter(k int, d time.Duration) { w.timers[k].ResetAfter(d) }
func (w *realWorld) stopTimer(k int) bool              { return w.timers[k].Stop() }
func (w *realWorld) nextDeadline() Time                { return w.c.NextDeadline() }
func (w *realWorld) stopClock()                        { w.c.Stop() }
func (w *realWorld) runUntil(d Time) error             { return w.c.RunUntil(d) }
func (w *realWorld) run() error                        { return w.c.Run() }
func (w *realWorld) processed() uint64                 { return w.c.Processed }
func (w *realWorld) deadline(k int) Time               { return deadline(w.timers[k]) }
func (w *realWorld) armed(k int) bool                  { return w.timers[k].Armed() }
func (w *realWorld) reserve(j int, at Time)            { w.keys[j] = w.c.Key(at) }

func (w *realWorld) resetKey(k, j int) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	w.timers[k].ResetKey(w.keys[j])
	return false
}

// --- the reference ---

type refEvent struct {
	at    Time
	seq   uint64
	id    int // as in fired.id
	dead  bool
	timer bool
}

// refClock is the reference: a slice sorted by (at, seq), a stopped
// timer's event stays queued, dead, until it reaches the head, and
// re-arming a timer kills its event and schedules another.
type refClock struct {
	*runner
	t       Time
	q       []*refEvent
	nDone   uint64
	stopped bool
	timers  [modelTimers]*refEvent
	seq     uint64
	keys    [modelKeys]refEvent // at and seq of each reserved key
}

func newRefClock(p program) *refClock {
	w := &refClock{runner: &runner{p: p, budget: modelBudget}}
	w.w = w
	return w
}

// next draws the key an event scheduled at at gets now.
func (w *refClock) next(at Time) refEvent {
	k := refEvent{at: max(at, w.t), seq: w.seq}
	w.seq++
	return k
}

func (w *refClock) at(at Time, id int, timer bool) *refEvent {
	return w.insert(w.next(at), id, timer)
}

// insert queues an event at key's (at, seq).
func (w *refClock) insert(key refEvent, id int, timer bool) *refEvent {
	e := &refEvent{at: key.at, seq: key.seq, id: id, timer: timer}
	i := len(w.q)
	for i > 0 && (w.q[i-1].at > e.at || w.q[i-1].at == e.at && w.q[i-1].seq > e.seq) {
		i--
	}
	w.q = append(w.q, nil)
	copy(w.q[i+1:], w.q[i:])
	w.q[i] = e
	return e
}

func (w *refClock) now() Time                     { return w.t }
func (w *refClock) schedule(at Time)              { w.at(at, w.newID(), false) }
func (w *refClock) scheduleAfter(d time.Duration) { w.schedule(w.t.Add(d)) }
func (w *refClock) reset(k int, at Time) {
	w.stopTimer(k)
	w.timers[k] = w.at(at, -(k + 1), true)
}
func (w *refClock) resetAfter(k int, d time.Duration) { w.reset(k, w.t.Add(d)) }
func (w *refClock) stopTimer(k int) bool {
	e := w.timers[k]
	if e == nil {
		return false
	}
	e.dead = true
	w.timers[k] = nil
	return true
}
func (w *refClock) nextDeadline() Time {
	for len(w.q) > 0 && w.q[0].dead {
		w.q = w.q[1:]
	}
	if len(w.q) == 0 {
		return Never
	}
	return w.q[0].at
}
func (w *refClock) stopClock()             { w.stopped = true }
func (w *refClock) reserve(j int, at Time) { w.keys[j] = w.next(at) }
func (w *refClock) resetKey(k, j int) bool {
	key := w.keys[j]
	if key.at < w.t {
		return true
	}
	w.stopTimer(k)
	w.timers[k] = w.insert(key, -(k + 1), true)
	return false
}
func (w *refClock) loop(deadline Time) {
	w.stopped = false
	for !w.stopped && len(w.q) > 0 && w.q[0].at <= deadline {
		e := w.q[0]
		w.q = w.q[1:]
		if e.dead {
			continue
		}
		w.t = e.at
		w.nDone++
		if e.timer {
			w.timers[-e.id-1] = nil
		}
		w.onFire(e.id)
	}
}
func (w *refClock) runUntil(deadline Time) error {
	w.loop(deadline)
	if !w.stopped && w.t < deadline {
		w.t = deadline
	}
	return nil
}
func (w *refClock) run() error        { w.loop(Never); return nil }
func (w *refClock) processed() uint64 { return w.nDone }
func (w *refClock) deadline(k int) Time {
	if w.timers[k] == nil {
		return Never
	}
	return w.timers[k].at
}
func (w *refClock) armed(k int) bool { return w.timers[k] != nil }

// live counts the reference's live events: the real clock holds exactly
// these, and no dead entry a stopped or re-armed timer left behind.
func (w *refClock) live() int {
	n := 0
	for _, e := range w.q {
		if !e.dead {
			n++
		}
	}
	return n
}

// checkClockProgram runs data's program on both sides and compares them
// after every top-level operation, then runs both to exhaustion.
func checkClockProgram(t *testing.T, data []byte) {
	t.Helper()
	p := decodeProgram(data)
	real, ref := newRealWorld(p), newRefClock(p)
	compared := 0 // callbacks already found equal
	// step applies o to both sides, compares them and returns the next
	// deadline they agree on.
	step := func(i int, o op) Time {
		errReal, errRef := real.apply(o), ref.apply(o)
		if errReal != nil || errRef != nil {
			t.Fatalf("op %d %+v: real err %v, ref err %v", i, o, errReal, errRef)
		}
		where := fmt.Sprintf("after op %d %+v", i, o)
		if a, b := real.fires[compared:], ref.fires[compared:]; !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: execution differs after %d equal callbacks\nreal %v\nref  %v", where, compared, a, b)
		}
		compared = len(real.fires)
		if real.now() != ref.now() || real.processed() != ref.processed() || real.panics != ref.panics {
			t.Fatalf("%s: now %v/%v processed %d/%d ResetKey panics %d/%d (real/ref)", where,
				real.now(), ref.now(), real.processed(), ref.processed(), real.panics, ref.panics)
		}
		for k := 0; k < modelTimers; k++ {
			if real.armed(k) != ref.armed(k) || real.deadline(k) != ref.deadline(k) {
				t.Fatalf("%s: timer %d armed %v/%v deadline %v/%v (real/ref)", where, k,
					real.armed(k), ref.armed(k), real.deadline(k), ref.deadline(k))
			}
		}
		if got, live := real.c.Pending(), ref.live(); got != live {
			t.Fatalf("%s: Pending() = %d, want the %d live events", where, got, live)
		}
		next := real.nextDeadline()
		if refNext := ref.nextDeadline(); next != refNext {
			t.Fatalf("%s: NextDeadline %v (real) != %v (ref)", where, next, refNext)
		}
		return next
	}
	next := Time(0)
	for i, o := range p.top {
		next = step(i, o)
	}
	// A script may stop the clock, but only modelBudget scripts run.
	for i := 0; next != Never; i++ {
		if i > modelBudget {
			t.Fatalf("clock not drained after %d runs", i)
		}
		next = step(len(p.top)+i, op{kind: opRun})
	}
	if got := real.c.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after draining, want 0", got)
	}
}

// clockSeeds are programs worth starting from: timers re-armed from
// their own callback and from other events', at Now and in the past,
// Stop inside a RunUntil window, a stop racing a re-arm at one instant.
var clockSeeds = [][]byte{
	nil,
	{1, 3, 2}, // event script: ResetAfter timer 0
	// Events re-arm timer 1 at Now, schedule at Now, stop timer 1 and
	// re-arm it in the past, and stop the clock; timer 0 re-arms itself,
	// timer 1 re-arms itself in the past.
	{3, 12, 0, 1, 0, 2, 3, 2, 13, 0, 11, 0, 1, 6, 0, 0, 0, 0, 0, 0,
		1, 3, 2, 2, 11, 0, 1, 0, 0,
		1, 1, 1, 1, 14, 1, 9, 5, 10, 0},
	// An event re-arms timer 0 in the past twice while another event is
	// due at the same instant.
	{2, 2, 0, 2, 0, 1, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 2, 10, 0},
	// Event 0 reserves a key three ticks out and event 1 arms timer 1
	// with it; timer 1 reserves a key at its own instant and arms timer
	// 2 with it.
	{1, 7, 3, 1, 17, 0, 0, 0, 0, 0, 0, 0,
		0, 2, 25, 0, 26, 2, 0,
		0, 1, 0, 2, 10, 0},
	// Keys at ticks 1 and 2, an event at tick 2, a window to tick 2:
	// arming the first key then panics, arming the second (at Now,
	// behind the event that already ran) does not.
	{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		7, 1, 18, 2, 0, 2, 9, 2, 8, 0, 19, 1, 10, 0},
}

// TestClockModel runs the seeds and a few thousand generated programs.
func TestClockModel(t *testing.T) {
	for _, s := range clockSeeds {
		checkClockProgram(t, s)
	}
	rng := NewRand(1)
	for i := 0; i < 3000; i++ {
		data := make([]byte, 40+rng.Intn(120))
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		checkClockProgram(t, data)
	}
}

// FuzzClockOps is TestClockModel with the fuzzer writing the programs.
func FuzzClockOps(f *testing.F) {
	for _, s := range clockSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		checkClockProgram(t, data)
	})
}
