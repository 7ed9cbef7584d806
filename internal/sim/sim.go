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
// a per-clock free list, the heap is a concrete []*Event with inlined
// sift-up/sift-down (no container/heap interface dispatch), and events
// scheduled for the current instant bypass the heap through a FIFO
// append-only queue.
//
// The heap holds live events. Every event knows its heap slot, so a
// Timer owns at most one slot however often it is re-armed: Reset
// re-keys the pending event in place and re-sifts it, Stop takes it out.
// The (deadline, sequence) key a re-armed event ends up with is the one
// a freshly scheduled event would have got, so execution order does not
// depend on whether an event was moved or replaced. The one dead entry
// the queues can still hold is an event cancelled through a plain
// Event.Cancel (or a Timer event caught in the same-instant queue),
// which waits to be discarded when it reaches the head.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp, measured as a duration since the start of
// the simulation. The zero Time is the simulation epoch.
type Time time.Duration

// Duration converts t to a time.Duration since the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds since the epoch.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Add returns t shifted forward by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

func (t Time) String() string { return time.Duration(t).String() }

// Never is a sentinel deadline meaning "no deadline armed".
const Never = Time(math.MaxInt64)

// Event is a unit of scheduled work.
//
// Events are pooled: once an event has executed (or has been discarded
// after cancellation) the Clock recycles its storage for a future At.
// An *Event handle is therefore only valid until the event fires;
// Cancel, Cancelled and At must not be called on a handle whose event
// already ran. Timer follows this discipline (it drops its handle when
// the timer fires) and is the safe way — and, outside this package, the
// only allowed way — to hold re-armable deadlines: it moves and removes
// its pending event inside the heap, where a cancelled plain event stays
// queued until its turn comes.
type Event struct {
	at  Time
	seq uint64 // tie-break: FIFO among events with equal deadlines
	fn  func()
	// idx is the event's slot in Clock.heap, or -1 while it is anywhere
	// else: in the same-instant queue, executing, or on the free list.
	// The sift helpers keep it current on every move.
	idx  int
	dead bool // cancelled
}

// At reports the deadline of the event.
func (e *Event) At() Time { return e.at }

// Cancel prevents the event from running and drops its callback, so a
// cancelled far-future event (an idle timeout two minutes out) stops
// pinning whatever the callback captured while it waits in the heap.
// The entry itself stays queued until it reaches the head — an Event
// has no way back to its Clock; a deadline that is cancelled or moved
// often belongs in a Timer, whose Stop and Reset leave nothing behind.
// Cancelling an already-cancelled pending event is a no-op; see the
// pooling note on Event for handles to already-executed events.
func (e *Event) Cancel() {
	e.dead = true
	e.fn = nil
}

// Cancelled reports whether Cancel was called.
func (e *Event) Cancelled() bool { return e.dead }

// eventLess orders events by (deadline, scheduling sequence): FIFO among
// equal deadlines.
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Clock is the simulation event loop. It is not safe for concurrent use;
// the whole simulation is single-threaded by design (determinism).
type Clock struct {
	now  Time
	heap []*Event // binary min-heap by (at, seq)
	// nowQ holds events scheduled for the instant they were created at.
	// Because virtual time is monotonic and seq increases, the queue is
	// always sorted by (at, seq): popping the head interleaves correctly
	// with the heap without any sifting.
	nowQ    []*Event
	nowHead int
	free    []*Event // recycled Event storage
	seq     uint64
	running bool
	stopped bool
	// Processed counts executed (non-cancelled) events, for tests and
	// runaway detection.
	Processed uint64
	// Discarded counts cancelled events thrown away on reaching the head
	// of a queue: work the loop did for nothing. Stopped and re-armed
	// Timers add none unless their event sat in the same-instant queue.
	Discarded uint64
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

// alloc takes an Event from the free list (or the heap's allocator).
func (c *Clock) alloc(at Time, fn func()) *Event {
	var e *Event
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		e.at, e.fn, e.dead = at, fn, false
	} else {
		e = &Event{at: at, fn: fn, idx: -1}
	}
	e.seq = c.seq
	c.seq++
	return e
}

// release returns an executed or discarded event to the free list,
// dropping its closure so captured state is collectable.
//
//mpq:noescape
func (c *Clock) release(e *Event) {
	e.fn = nil
	c.free = append(c.free, e)
}

// At schedules fn to run at the absolute virtual time at. Scheduling in
// the past (at < Now) is an error in the caller; the event is clamped to
// run "now" to keep the loop monotonic.
func (c *Clock) At(at Time, fn func()) *Event {
	if at <= c.now {
		// Same-instant fast path: append to the FIFO queue, no sifting.
		e := c.alloc(c.now, fn)
		c.nowQ = append(c.nowQ, e)
		return e
	}
	e := c.alloc(at, fn)
	c.heapPush(e)
	return e
}

// After schedules fn to run d after the current time.
func (c *Clock) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return c.At(c.now.Add(d), fn)
}

// Stop makes Run return after the currently executing event finishes.
func (c *Clock) Stop() { c.stopped = true }

// Pending reports the number of queued events: every live one, plus the
// plainly cancelled ones (Event.Cancel) that have not reached the head
// yet. A Timer contributes one while armed and none while stopped,
// however often it was re-armed.
func (c *Clock) Pending() int { return len(c.heap) + len(c.nowQ) - c.nowHead }

// --- inlined binary heap on []*Event ---
//
// siftUp and siftDown place an event whose slot i is a hole (the slice
// element at i is stale) and record every move in Event.idx.

// siftUp moves e from slot i toward the root while it sorts before its
// parent, stores it and returns the slot it ended in.
//
//mpq:noescape
func (c *Clock) siftUp(i int, e *Event) int {
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
func (c *Clock) siftDown(i int, e *Event) {
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
func (c *Clock) heapPush(e *Event) {
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
func (c *Clock) heapRemove(i int) *Event {
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

// heapPop removes and returns the heap minimum. The caller guarantees
// the heap is non-empty.
//
//mpq:noescape
func (c *Clock) heapPop() *Event { return c.heapRemove(0) }

// peek returns the earliest scheduled event (possibly cancelled) without
// removing it, or nil.
//
//mpq:noescape
func (c *Clock) peek() *Event {
	var qn *Event
	if c.nowHead < len(c.nowQ) {
		qn = c.nowQ[c.nowHead]
	}
	if len(c.heap) == 0 {
		return qn
	}
	hn := c.heap[0]
	if qn == nil || eventLess(hn, qn) {
		return hn
	}
	return qn
}

// popNext removes and returns the earliest live event with deadline <=
// deadline, or nil. Cancelled events encountered on the way are
// discarded and recycled.
//
//mpq:noescape
func (c *Clock) popNext(deadline Time) *Event {
	for {
		var qn *Event
		if c.nowHead < len(c.nowQ) {
			qn = c.nowQ[c.nowHead]
		}
		var e *Event
		if hn := (*Event)(nil); len(c.heap) > 0 {
			hn = c.heap[0]
			if qn == nil || eventLess(hn, qn) {
				if hn.at > deadline {
					return nil
				}
				e = c.heapPop()
			}
		}
		if e == nil {
			if qn == nil || qn.at > deadline {
				return nil
			}
			c.nowQ[c.nowHead] = nil
			c.nowHead++
			if c.nowHead == len(c.nowQ) {
				c.nowQ = c.nowQ[:0]
				c.nowHead = 0
			}
			e = qn
		}
		if e.dead {
			c.Discarded++
			c.release(e)
			continue
		}
		return e
	}
}

// NextDeadline reports the deadline of the earliest live event, or
// Never. Together with RunUntil it forms the deadline-bounded stepping
// API an external driver needs to interleave virtual time with an
// outside event source (the live UDP driver blocks on socket
// readability until the wall image of this deadline, then calls
// RunUntil) — see internal/live.
//
// Handle contract: NextDeadline discards cancelled events it finds at
// the head of the queue and recycles their storage, so any retained
// *Event handle to a cancelled event becomes invalid once NextDeadline
// (or any Run variant) is called. Only sim.Timer holds handles safely
// (the eventhandle analyzer enforces it). Stopped and re-armed Timers
// leave no cancelled entry behind, so what is skipped here is only what
// a plain Event.Cancel left.
func (c *Clock) NextDeadline() Time {
	for {
		e := c.peek()
		if e == nil {
			return Never
		}
		if !e.dead {
			return e.at
		}
		// Discard the cancelled head and keep looking.
		if c.nowHead < len(c.nowQ) && c.nowQ[c.nowHead] == e {
			c.nowQ[c.nowHead] = nil
			c.nowHead++
			if c.nowHead == len(c.nowQ) {
				c.nowQ = c.nowQ[:0]
				c.nowHead = 0
			}
		} else {
			c.heapPop()
		}
		c.Discarded++
		c.release(e)
	}
}

// run is the shared loop of Run and RunUntil: execute live events in
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
			c.release(e)
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
//
// Handle contract: an *Event handle is invalid once its event has fired
// or been discarded, regardless of which Run variant drove it; after
// RunUntil returns, handles to events with deadlines <= deadline must
// not be used. Events scheduled beyond deadline keep valid handles and
// may still be cancelled before a later call.
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
	ev    *Event
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
// previously armed deadline. A pending event that waits in the heap is
// re-keyed in place: it takes the new deadline and the next scheduling
// sequence — exactly the key a newly scheduled event would get, so the
// firing order among equal deadlines is that of the Reset calls — and is
// re-sifted; the timer keeps its one heap slot. Only a pending event in
// the same-instant queue, or a deadline that is not in the future (which
// belongs in that queue), is cancelled and scheduled anew.
//
//mpq:noescape
func (t *Timer) Reset(at Time) {
	c := t.clock
	if e := t.ev; e != nil && e.idx >= 0 && at > c.now {
		e.at = at
		e.seq = c.seq
		c.seq++
		c.heapFix(e.idx)
		return
	}
	t.Stop()
	t.ev = c.At(at, t.fireFn)
}

// ResetAfter (re)arms the timer to fire d from now.
func (t *Timer) ResetAfter(d time.Duration) { t.Reset(t.clock.Now().Add(d)) }

func (t *Timer) fire() {
	t.ev = nil
	t.fn()
}

// Stop disarms the timer. It reports whether a pending firing was
// prevented. The pending event leaves the heap and is recycled at once;
// one waiting in the same-instant queue is cancelled and discarded when
// the queue reaches it, within the current instant.
//
//mpq:noescape
func (t *Timer) Stop() bool {
	e := t.ev
	if e == nil {
		return false
	}
	t.ev = nil
	if e.idx >= 0 {
		t.clock.release(t.clock.heapRemove(e.idx))
	} else {
		e.Cancel()
	}
	return true
}

// Armed reports whether the timer currently has a pending deadline.
func (t *Timer) Armed() bool { return t.ev != nil }

// Deadline reports the pending deadline, or Never when unarmed.
func (t *Timer) Deadline() Time {
	if t.ev == nil {
		return Never
	}
	return t.ev.at
}
