package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// The clock model test: one program of clock operations runs against the
// real Clock and against refClock, a reference that keeps a plain slice
// sorted by (at, seq) and re-arms a timer the plain way — cancel the
// pending event, leave it queued, schedule a new one. Both sides must
// execute the same events in the same order at the same instants and
// agree on everything the API lets a caller observe.

// modelTimers is the number of timers a program drives.
const modelTimers = 3

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
	opCancel // Event.Cancel on a still-pending plain event
	opReset
	opResetAfter
	opStopTimer
	opNextDeadline
	opStopClock
	opRunUntil // top level only
	opRun      // top level only
	numOps
)

type op struct {
	kind opKind
	arg  int // ticks, or which pending event
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
	cancel(which int) // cancel the which-th (mod count) pending plain event
	reset(k int, at Time)
	resetAfter(k int, d time.Duration)
	stopTimer(k int) bool
	nextDeadline() Time
	stopClock()
	runUntil(deadline Time) error
	run() error
	deadline(k int) Time
}

// runner holds what both worlds share: the program and the bookkeeping
// of plain-event ids.
type runner struct {
	p       program
	w       world
	nextID  int
	pending []int // ids of plain events neither fired nor cancelled, ascending
	budget  int
	fires   []fired
}

func (r *runner) apply(o op) error {
	w := r.w
	switch o.kind {
	case opAt:
		w.schedule(Time(o.arg) * tick)
	case opAfter:
		w.scheduleAfter(time.Duration(o.arg) * tick.Duration())
	case opCancel:
		w.cancel(o.arg)
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
		r.dropPending(id)
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
	r.pending = append(r.pending, id)
	return id
}

// pick returns the id of the which-th pending plain event and forgets
// it, or -1 when none is pending.
func (r *runner) pick(which int) int {
	if len(r.pending) == 0 {
		return -1
	}
	id := r.pending[which%len(r.pending)]
	r.dropPending(id)
	return id
}

func (r *runner) dropPending(id int) {
	for i, p := range r.pending {
		if p == id {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return
		}
	}
}

// --- the real clock ---

type realWorld struct {
	*runner
	c       *Clock
	timers  [modelTimers]*Timer
	handles map[int]*Event
}

func newRealWorld(p program) *realWorld {
	w := &realWorld{runner: &runner{p: p, budget: modelBudget}, c: NewClock(), handles: map[int]*Event{}}
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
	w.handles[id] = w.c.At(at, w.callback(id))
}
func (w *realWorld) scheduleAfter(d time.Duration) {
	id := w.newID()
	w.handles[id] = w.c.After(d, w.callback(id))
}
func (w *realWorld) callback(id int) func() {
	return func() {
		delete(w.handles, id) // the handle dies when the event fires
		w.onFire(id)
	}
}
func (w *realWorld) cancel(which int) {
	if id := w.pick(which); id >= 0 {
		w.handles[id].Cancel()
		delete(w.handles, id)
	}
}
func (w *realWorld) reset(k int, at Time)              { w.timers[k].Reset(at) }
func (w *realWorld) resetAfter(k int, d time.Duration) { w.timers[k].ResetAfter(d) }
func (w *realWorld) stopTimer(k int) bool              { return w.timers[k].Stop() }
func (w *realWorld) nextDeadline() Time                { return w.c.NextDeadline() }
func (w *realWorld) stopClock()                        { w.c.Stop() }
func (w *realWorld) runUntil(d Time) error             { return w.c.RunUntil(d) }
func (w *realWorld) run() error                        { return w.c.Run() }
func (w *realWorld) processed() uint64                 { return w.c.Processed }
func (w *realWorld) deadline(k int) Time               { return w.timers[k].Deadline() }
func (w *realWorld) armed(k int) bool                  { return w.timers[k].Armed() }

// --- the reference ---

type refEvent struct {
	at    Time
	seq   uint64
	id    int // as in fired.id
	dead  bool
	nowQ  bool // was scheduled for the instant it was created at
	timer bool
}

// refClock is the reference: a slice sorted by (at, seq), a cancelled
// event stays queued until it reaches the head, and re-arming a timer
// cancels its event and schedules another.
type refClock struct {
	*runner
	t       Time
	seq     uint64
	q       []*refEvent
	nDone   uint64
	stopped bool
	timers  [modelTimers]*refEvent
	plain   map[int]*refEvent
}

func newRefClock(p program) *refClock {
	w := &refClock{runner: &runner{p: p, budget: modelBudget}, plain: map[int]*refEvent{}}
	w.w = w
	return w
}

func (w *refClock) at(at Time, id int, timer bool) *refEvent {
	e := &refEvent{at: at, seq: w.seq, id: id, timer: timer}
	w.seq++
	if at <= w.t {
		e.at, e.nowQ = w.t, true
	}
	// seq is the largest so far: the event goes after every event with a
	// deadline <= its own.
	i := len(w.q)
	for i > 0 && w.q[i-1].at > e.at {
		i--
	}
	w.q = append(w.q, nil)
	copy(w.q[i+1:], w.q[i:])
	w.q[i] = e
	return e
}

func (w *refClock) now() Time { return w.t }
func (w *refClock) schedule(at Time) {
	id := w.newID()
	w.plain[id] = w.at(at, id, false)
}
func (w *refClock) scheduleAfter(d time.Duration) { w.schedule(w.t.Add(d)) }
func (w *refClock) cancel(which int) {
	if id := w.pick(which); id >= 0 {
		w.plain[id].dead = true
		delete(w.plain, id)
	}
}
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
func (w *refClock) stopClock() { w.stopped = true }
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
		} else {
			delete(w.plain, e.id)
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

// occupancy counts what the real clock may still hold: every live event,
// every plainly cancelled one, and a cancelled timer event only if it
// sat in the same-instant queue. A cancelled timer event with a future
// deadline — what every re-arm used to leave behind — is not allowed.
func (w *refClock) occupancy() (live, total int) {
	for _, e := range w.q {
		switch {
		case !e.dead:
			live++
			total++
		case !e.timer || e.nowQ:
			total++
		}
	}
	return live, total
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
		if real.now() != ref.now() || real.processed() != ref.processed() {
			t.Fatalf("%s: now %v/%v processed %d/%d (real/ref)", where, real.now(), ref.now(), real.processed(), ref.processed())
		}
		for k := 0; k < modelTimers; k++ {
			if real.armed(k) != ref.armed(k) || real.deadline(k) != ref.deadline(k) {
				t.Fatalf("%s: timer %d armed %v/%v deadline %v/%v (real/ref)", where, k,
					real.armed(k), ref.armed(k), real.deadline(k), ref.deadline(k))
			}
		}
		live, total := ref.occupancy()
		if got := real.c.Pending(); got < live || got > total {
			t.Fatalf("%s: Pending() = %d, want between %d live and %d with cancelled plain events", where, got, live, total)
		}
		// NextDeadline discards cancelled heads on both sides, so it is
		// compared last.
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
// their own callback and from other events', Stop inside a RunUntil
// window, cancels racing re-arms at one instant.
var clockSeeds = [][]byte{
	nil,
	{1, 3, 2}, // event script: ResetAfter timer 0
	// scripts: events re-arm timer 1 and cancel; timers re-arm themselves.
	{2, 14, 3, 2, 1, 1, 4, 5, 0, 0, 0, 0, 0, 0, 1, 4, 2, 1, 14, 1, 1, 24, 6,
		1, 5, 3, 0, 4, 4, 14, 2, 8, 3, 7, 0, 8, 6, 9, 0},
	{1, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1, 8, 9, 1, 3, 8, 2, 8, 11},
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
