// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine drives every protocol stack and network element in this
// repository. Time is virtual: an event loop pops timestamped events from
// a binary heap and advances the clock to each event's deadline. Nothing
// ever sleeps, so a multi-second emulated transfer completes in
// microseconds of wall time and every run with the same seed is
// bit-for-bit reproducible.
//
// The loop is allocation-free in steady state: executed events return to
// a per-clock free list, and the one queue is a binary min-heap keyed by
// (deadline, scheduling sequence), a concrete []*event with inlined
// sift-up/sift-down (no container/heap interface dispatch). An event
// scheduled for the current instant or the past takes the current
// instant as its deadline, so it runs after every event already due
// then.
//
// The heap holds only live events. Every event knows its heap slot, so a
// Timer owns exactly one slot while armed however often it is re-armed:
// Reset re-keys the pending event in place and re-sifts it, Stop takes
// it out. The (deadline, sequence) key a re-armed event ends up with is
// the one a freshly scheduled event would have got, so execution order
// does not depend on whether an event was moved or replaced. Key hands
// out such a key without scheduling anything, and ResetKey arms a timer
// at it later: a caller whose steps are already in key order (netem's
// links) keeps them off the heap behind one timer, and each still runs
// where an event of its own would have.
//
// At and After hand out no handle: events are pooled and their storage
// is reused once they run, so a Timer is the only deadline a caller can
// hold, move or stop.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp, measured as a duration since the start of
// the simulation. The zero Time is the simulation epoch.
type Time time.Duration

// Duration converts t to a time.Duration since the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns t shifted forward by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

func (t Time) String() string { return time.Duration(t).String() }

// Never is a sentinel deadline meaning "no deadline armed".
const Never = Time(math.MaxInt64)

// event is a unit of scheduled work.
//
// Events are pooled: once an event has executed, or its Timer was
// stopped, the Clock recycles its storage for a future schedule. An
// *event is therefore only valid until the event fires. Timer holds one
// and drops it when the timer fires.
type event struct {
	Key // the seq tie-break: FIFO among events with equal deadlines
	fn  func()
	// idx is the event's slot in Clock.heap, or -1 while it executes or
	// sits on the free list. The sift helpers keep it current on every
	// move.
	idx int
}

// eventLess orders events by (deadline, scheduling sequence): FIFO among
// equal deadlines.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Clock is the simulation event loop. It is not safe for concurrent use;
// the whole simulation is single-threaded by design (determinism).
type Clock struct {
	now     Time
	heap    []*event // binary min-heap by (at, seq)
	free    []*event // recycled event storage
	seq     uint64
	running bool
	stopped bool
	// Processed counts executed events, for tests and runaway detection.
	Processed uint64
	// Limit aborts Run with an error when more than Limit events execute.
	// Zero means no limit.
	Limit uint64
}

// DefaultEventLimit is the runaway guard every finite simulation
// assigns to Clock.Limit: far beyond anything a transfer needs, small
// enough to abort a self-rescheduling loop within minutes. NewClock
// does not apply it — a live server's clock runs unbounded.
const DefaultEventLimit = 500_000_000

// NewClock returns a Clock at the simulation epoch.
func NewClock() *Clock { return &Clock{} }

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Key is the place of an event in the clock's execution order: its
// deadline, then its scheduling sequence.
type Key struct {
	at  Time
	seq uint64
}

// Key reserves the key an event scheduled at at would get now — the
// deadline clamped to Now, and the next scheduling sequence — without
// scheduling anything. Timer.ResetKey arms a timer with it later.
func (c *Clock) Key(at Time) Key {
	k := Key{at: max(at, c.now), seq: c.seq}
	c.seq++
	return k
}

// alloc takes an event from the free list, refilling it when empty.
func (c *Clock) alloc(k Key, fn func()) *event {
	if len(c.free) == 0 {
		c.refill()
	}
	n := len(c.free) - 1
	e := c.free[n]
	c.free[n] = nil
	c.free = c.free[:n]
	e.Key, e.fn = k, fn
	return e
}

// refill is alloc's cold path, out of line so that the //mpq:noescape
// callers alloc inlines into stay allocation-free.
//
//go:noinline
func (c *Clock) refill() { c.free = append(c.free, &event{idx: -1}) }

// release returns an executed or stopped event to the free list,
// dropping its closure so captured state is collectable.
//
//mpq:noescape
func (c *Clock) release(e *event) {
	e.fn = nil
	c.free = append(c.free, e)
}

// At schedules fn to run at the absolute virtual time at. Scheduling in
// the past (at < Now) is an error in the caller; the event is clamped to
// run "now" to keep the loop monotonic.
func (c *Clock) At(at Time, fn func()) { c.heapPush(c.alloc(c.Key(at), fn)) }

// After schedules fn to run d after the current time.
func (c *Clock) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	c.At(c.now.Add(d), fn)
}

// Stop makes Run return after the currently executing event finishes.
func (c *Clock) Stop() { c.stopped = true }

// Pending reports the number of queued events, all of them live. A Timer
// contributes one while armed and none while stopped, however often it
// was re-armed. Its user is internal/perf's occupancy test.
func (c *Clock) Pending() int { return len(c.heap) }

// --- inlined binary heap on []*event ---
//
// siftUp and siftDown place an event whose slot i is a hole (the slice
// element at i is stale) and record every move in event.idx.

// siftUp moves e from slot i toward the root while it sorts before its
// parent, stores it and returns the slot it ended in.
//
//mpq:noescape
func (c *Clock) siftUp(i int, e *event) int {
	h := c.heap
	for i > 0 {
		parent := (i - 1) / 2
		p := h[parent]
		if !eventLess(e, p) {
			break
		}
		h[i] = p
		p.idx = i
		i = parent
	}
	h[i] = e
	e.idx = i
	return i
}

// siftDown moves e from slot i toward the leaves while a child sorts
// before it, and stores it.
//
//mpq:noescape
func (c *Clock) siftDown(i int, e *event) {
	h := c.heap
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && eventLess(h[r], h[child]) {
			child = r
		}
		ch := h[child]
		if !eventLess(ch, e) {
			break
		}
		h[i] = ch
		ch.idx = i
		i = child
	}
	h[i] = e
	e.idx = i
}

//mpq:noescape
func (c *Clock) heapPush(e *event) {
	c.heap = append(c.heap, e)
	c.siftUp(len(c.heap)-1, e)
}

// heapFix restores heap order after the event in slot i changed its key.
//
//mpq:noescape
func (c *Clock) heapFix(i int) {
	e := c.heap[i]
	if c.siftUp(i, e) == i {
		c.siftDown(i, e)
	}
}

// heapRemove takes the event in slot i out of the heap and returns it.
// The caller guarantees the slot exists.
//
//mpq:noescape
func (c *Clock) heapRemove(i int) *event {
	h := c.heap
	e := h[i]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	c.heap = h[:n]
	e.idx = -1
	if i < n {
		// last fills the hole, wherever it then belongs.
		h[i] = last
		c.heapFix(i)
	}
	return e
}

// popNext removes and returns the earliest event if its deadline is <=
// deadline, or returns nil.
//
//mpq:noescape
func (c *Clock) popNext(deadline Time) *event {
	if len(c.heap) == 0 || c.heap[0].at > deadline {
		return nil
	}
	return c.heapRemove(0)
}

// NextDeadline reports the deadline of the earliest event, or Never.
// Together with RunUntil it forms the deadline-bounded stepping API an
// external driver needs to interleave virtual time with an outside event
// source (the live UDP driver blocks on socket readability until the
// wall image of this deadline, then calls RunUntil) — see internal/live.
func (c *Clock) NextDeadline() Time {
	if len(c.heap) == 0 {
		return Never
	}
	return c.heap[0].at
}

// run is the shared loop of Run and RunUntil: execute events in
// (deadline, FIFO) order while their deadline is <= deadline.
func (c *Clock) run(deadline Time) error {
	c.stopped = false
	defer func() { c.running = false }()
	for !c.stopped {
		e := c.popNext(deadline)
		if e == nil {
			return nil
		}
		if e.at < c.now {
			return fmt.Errorf("sim: time went backwards: %v -> %v", c.now, e.at)
		}
		c.now = e.at
		c.Processed++
		if c.Limit > 0 && c.Processed > c.Limit {
			// The event stays queued, so a Timer holding it stays armed.
			c.heapPush(e)
			return fmt.Errorf("sim: event limit %d exceeded at t=%v", c.Limit, c.now)
		}
		e.fn()
		c.release(e)
	}
	return nil
}

// Run executes events in deadline order until the queue drains, Stop is
// called, or the event limit is exceeded.
func (c *Clock) Run() error {
	if c.running {
		return fmt.Errorf("sim: Run re-entered")
	}
	c.running = true
	return c.run(Never)
}

// RunUntil executes events with deadlines <= deadline, then advances the
// clock to exactly deadline. It returns any Run error. If Stop ended the
// window early the clock stays at the instant of the stopping event:
// events may still be pending between there and deadline, and a later
// Run or RunUntil continues with them.
//
// RunUntil is the deadline-bounded stepping entry point (Run runs to
// exhaustion): callers may invoke it repeatedly with increasing
// deadlines, and each call executes exactly the events Run would have
// executed in that window, in the same (deadline, FIFO) order. Because
// the clock lands on exactly deadline even when no event was due,
// repeated calls make virtual time a monotone image of any outside
// timebase — the live driver maps wall-elapsed time through it.
func (c *Clock) RunUntil(deadline Time) error {
	if c.running {
		return fmt.Errorf("sim: RunUntil re-entered")
	}
	c.running = true
	err := c.run(deadline)
	if err == nil && !c.stopped && c.now < deadline {
		c.now = deadline
	}
	return err
}

// Timer is a re-armable single-shot timer bound to a Clock, analogous to
// time.Timer but virtual. The zero value is unusable; use NewTimer.
type Timer struct {
	clock *Clock
	ev    *event
	fn    func()
	// fireFn is the method value t.fire, bound once: evaluating it in
	// Reset would allocate a closure per re-arm.
	fireFn func()
}

// NewTimer returns an unarmed timer that runs fn when it fires.
func NewTimer(c *Clock, fn func()) *Timer {
	t := &Timer{clock: c, fn: fn}
	t.fireFn = t.fire
	return t
}

// Reset (re)arms the timer to fire at absolute time at, replacing any
// previously armed deadline. A deadline in the past is clamped to Now,
// as At clamps it: the timer fires after the events already due now. A
// pending event is re-keyed in place: it takes the new deadline and the
// next scheduling sequence — exactly the key a newly scheduled event
// would get, so the firing order among equal deadlines is that of the
// Reset calls — and is re-sifted; the timer keeps its one heap slot.
//
//mpq:noescape
func (t *Timer) Reset(at Time) { t.ResetKey(t.clock.Key(at)) }

// ResetKey (re)arms the timer at exactly k, a key Clock.Key reserved:
// it fires where an event scheduled when k was reserved would fire.
// Arm each key at most once. A key whose deadline is already past
// (before Now) panics: its place in the order has gone by.
//
//mpq:noescape
func (t *Timer) ResetKey(k Key) {
	c := t.clock
	if k.at < c.now {
		panic(errPastKey)
	}
	e := t.ev
	if e == nil {
		t.ev = c.alloc(k, t.fireFn)
		c.heapPush(t.ev)
		return
	}
	e.Key = k
	c.heapFix(e.idx)
}

// errPastKey is ResetKey's panic value, made once: ResetKey must not allocate.
var errPastKey = errors.New("sim: ResetKey with a deadline before Now")

// ResetAfter (re)arms the timer to fire d from now.
func (t *Timer) ResetAfter(d time.Duration) { t.Reset(t.clock.Now().Add(d)) }

func (t *Timer) fire() {
	t.ev = nil
	t.fn()
}

// Stop disarms the timer. It reports whether a pending firing was
// prevented. The pending event leaves the heap and is recycled at once.
//
//mpq:noescape
func (t *Timer) Stop() bool {
	e := t.ev
	if e == nil {
		return false
	}
	t.ev = nil
	t.clock.release(t.clock.heapRemove(e.idx))
	return true
}

// Armed reports whether the timer currently has a pending deadline.
// netem's links read it to tell which of their two timers is idle.
func (t *Timer) Armed() bool { return t.ev != nil }
