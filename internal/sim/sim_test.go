package sim

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

// deadline reports tm's pending deadline, or Never when unarmed.
func deadline(tm *Timer) Time {
	if tm.ev == nil {
		return Never
	}
	return tm.ev.at
}

func TestClockRunsEventsInOrder(t *testing.T) {
	c := NewClock()
	var got []int
	c.After(30*time.Millisecond, func() { got = append(got, 3) })
	c.After(10*time.Millisecond, func() { got = append(got, 1) })
	c.After(20*time.Millisecond, func() { got = append(got, 2) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("wrong order: %v", got)
	}
	if c.Now() != Time(30*time.Millisecond) {
		t.Fatalf("clock at %v, want 30ms", c.Now())
	}
}

func TestClockFIFOAmongEqualDeadlines(t *testing.T) {
	c := NewClock()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(Time(time.Millisecond), func() { got = append(got, i) })
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("not FIFO at %d: %v", i, got)
		}
	}
}

func TestClockEventsScheduledDuringRun(t *testing.T) {
	c := NewClock()
	var fired []Time
	c.After(time.Millisecond, func() {
		c.After(time.Millisecond, func() { fired = append(fired, c.Now()) })
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != Time(2*time.Millisecond) {
		t.Fatalf("nested scheduling broken: %v", fired)
	}
}

func TestRunUntilAdvancesToDeadline(t *testing.T) {
	c := NewClock()
	var at Time
	c.After(5*time.Millisecond, func() { at = c.Now() })
	c.After(50*time.Millisecond, func() { t.Fatal("event past deadline ran") })
	if err := c.RunUntil(Time(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if at != Time(5*time.Millisecond) {
		t.Fatalf("event ran at %v", at)
	}
	if c.Now() != Time(10*time.Millisecond) {
		t.Fatalf("clock at %v, want 10ms", c.Now())
	}
}

func TestClockStop(t *testing.T) {
	c := NewClock()
	n := 0
	for i := 1; i <= 5; i++ {
		c.After(time.Duration(i)*time.Millisecond, func() {
			n++
			if n == 2 {
				c.Stop()
			}
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("ran %d events after Stop, want 2", n)
	}
}

// Stop inside a RunUntil window leaves the clock at the stopping event,
// not at the window's deadline: events are still pending in between,
// and the next Run must find them in its future. (RunUntil used to jump
// to the deadline regardless, and the next Run failed with "time went
// backwards".)
func TestRunUntilStopKeepsClockAtStopInstant(t *testing.T) {
	c := NewClock()
	var fired []Time
	c.After(2*time.Millisecond, func() { fired = append(fired, c.Now()); c.Stop() })
	c.After(5*time.Millisecond, func() { fired = append(fired, c.Now()) })
	if err := c.RunUntil(Time(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if c.Now() != Time(2*time.Millisecond) || len(fired) != 1 {
		t.Fatalf("after Stop: now=%v fired=%v, want the clock at 2ms with one event run", c.Now(), fired)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("Run after a stopped RunUntil: %v", err)
	}
	if len(fired) != 2 || fired[1] != Time(5*time.Millisecond) || c.Now() != Time(5*time.Millisecond) {
		t.Fatalf("after Run: now=%v fired=%v, want the 5ms event run at 5ms", c.Now(), fired)
	}
}

func TestClockLimit(t *testing.T) {
	c := NewClock()
	c.Limit = 10
	var loop func()
	loop = func() { c.After(time.Millisecond, loop) }
	loop()
	if err := c.Run(); err == nil {
		t.Fatal("expected event-limit error")
	}
	// A timer whose event hits the limit keeps it queued, so it still
	// stops cleanly.
	c = NewClock()
	c.Limit = 10
	var tm *Timer
	tm = NewTimer(c, func() { tm.ResetAfter(time.Millisecond) })
	tm.ResetAfter(time.Millisecond)
	if err := c.Run(); err == nil {
		t.Fatal("expected event-limit error")
	}
	if !tm.Stop() || c.Pending() != 0 {
		t.Fatalf("after the limit: Stop found no pending firing or left %d events", c.Pending())
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	c := NewClock()
	var second Time
	c.After(10*time.Millisecond, func() {
		c.At(Time(time.Millisecond), func() { second = c.Now() })
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if second != Time(10*time.Millisecond) {
		t.Fatalf("past event ran at %v, want clamp to 10ms", second)
	}
}

func TestTimerResetReplacesDeadline(t *testing.T) {
	c := NewClock()
	fires := 0
	tm := NewTimer(c, func() { fires++ })
	tm.ResetAfter(10 * time.Millisecond)
	tm.ResetAfter(20 * time.Millisecond)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if fires != 1 {
		t.Fatalf("timer fired %d times, want 1", fires)
	}
	if c.Now() != Time(20*time.Millisecond) {
		t.Fatalf("fired at %v, want 20ms", c.Now())
	}
}

func TestTimerStop(t *testing.T) {
	c := NewClock()
	tm := NewTimer(c, func() { t.Fatal("stopped timer fired") })
	tm.ResetAfter(time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop reported no pending firing")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported pending firing")
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// A timer re-armed at Now twice from a callback keeps its one heap
// slot, and the key it takes each time makes it fire once, after the
// events already due at that instant.
func TestTimerOwnsOneSlotWhenReArmedAtNow(t *testing.T) {
	c := NewClock()
	var got []string
	tm := NewTimer(c, func() { got = append(got, "timer") })
	c.After(time.Millisecond, func() {
		tm.Reset(c.Now())
		tm.Reset(c.Now())
	})
	c.After(time.Millisecond, func() {
		got = append(got, "due")
		if n := c.Pending(); n != 1 {
			t.Errorf("Pending() = %d with only the timer left, want 1", n)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[due timer]" {
		t.Fatalf("fired %v, want [due timer]", got)
	}
}

// TestResetKeyPanicsOnPastDeadline pins ResetKey's one refusal: a key
// whose deadline is before Now has had its place in the order.
func TestResetKeyPanicsOnPastDeadline(t *testing.T) {
	c := NewClock()
	tm := NewTimer(c, func() {})
	past, now := c.Key(Time(time.Millisecond)), c.Key(Time(2*time.Millisecond))
	c.RunUntil(Time(2 * time.Millisecond))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ResetKey with a deadline before Now did not panic")
			}
		}()
		tm.ResetKey(past)
	}()
	if tm.Armed() {
		t.Fatal("a refused ResetKey armed the timer")
	}
	tm.ResetKey(now)
	if deadline(tm) != c.Now() {
		t.Fatalf("ResetKey at Now: deadline %v, want %v", deadline(tm), c.Now())
	}
}

func TestTimerDeadlineAndArmed(t *testing.T) {
	c := NewClock()
	tm := NewTimer(c, func() {})
	if tm.Armed() || deadline(tm) != Never {
		t.Fatal("new timer should be unarmed")
	}
	tm.ResetAfter(7 * time.Millisecond)
	if !tm.Armed() || deadline(tm) != Time(7*time.Millisecond) {
		t.Fatalf("armed=%v deadline=%v", tm.Armed(), deadline(tm))
	}
	c.Run()
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	cpy := NewRand(7)
	d := NewRand(8)
	same := 0
	for i := 0; i < 100; i++ {
		if cpy.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandBernoulliExtremes(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestRandBernoulliRate(t *testing.T) {
	r := NewRand(9)
	hits := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.025) {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.022 || rate > 0.028 {
		t.Fatalf("Bernoulli(0.025) rate %v", rate)
	}
}

// Property: Float64 is always in [0,1) for arbitrary seeds and draws.
func TestRandFloat64Property(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := NewRand(seed)
		for i := 0; i < int(n); i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Intn(n) is always in [0,n).
func TestRandIntnProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := NewRand(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandForkDecorrelated(t *testing.T) {
	parent := NewRand(5)
	a := parent.Fork()
	b := parent.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked streams collided %d/100 times", same)
	}
}

func TestTimeHelpers(t *testing.T) {
	tt := Time(1500 * time.Millisecond)
	if tt.Add(500*time.Millisecond) != Time(2*time.Second) {
		t.Fatal("Add broken")
	}
}

func BenchmarkClockScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := NewClock()
		for j := 0; j < 100; j++ {
			c.After(time.Duration(j)*time.Microsecond, func() {})
		}
		c.Run()
	}
}

// TestDriverLoopStepping drives a clock the way the live driver does —
// NextDeadline to find the wake-up point, RunUntil to execute the due
// window — and checks the execution trace is identical to a plain Run
// over the same schedule, including events that reschedule themselves.
func TestDriverLoopStepping(t *testing.T) {
	build := func(c *Clock, log *[]string) {
		var tick func()
		n := 0
		tick = func() {
			*log = append(*log, fmt.Sprintf("tick@%v", c.Now()))
			if n++; n < 3 {
				c.After(3*time.Millisecond, tick)
			}
		}
		c.After(2*time.Millisecond, tick)
		c.After(5*time.Millisecond, func() { *log = append(*log, fmt.Sprintf("a@%v", c.Now())) })
		c.After(5*time.Millisecond, func() { *log = append(*log, fmt.Sprintf("b@%v", c.Now())) })
	}

	var want []string
	ref := NewClock()
	build(ref, &want)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	var got []string
	c := NewClock()
	build(c, &got)
	steps := 0
	for {
		dl := c.NextDeadline()
		if dl == Never {
			break
		}
		// A driver would block on socket readability here, then advance
		// to the wall-elapsed time; stepping to exactly the deadline is
		// the timeout branch of that select.
		if err := c.RunUntil(dl); err != nil {
			t.Fatal(err)
		}
		steps++
	}
	if steps != 3 {
		t.Fatalf("driver loop took %d steps, want 3 (deadlines 2ms, 5ms, 8ms)", steps)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stepped trace %v != Run trace %v", got, want)
	}
}

// TestRunUntilPartialWindows splits the same schedule at an arbitrary
// boundary that is not an event deadline: nothing may be lost or
// reordered across the split, and the clock must land exactly on each
// requested deadline.
func TestRunUntilPartialWindows(t *testing.T) {
	c := NewClock()
	var fired []Time
	for _, d := range []time.Duration{1, 4, 6, 9} {
		d := d
		c.After(d*time.Millisecond, func() { fired = append(fired, c.Now()) })
	}
	if err := c.RunUntil(Time(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || c.Now() != Time(5*time.Millisecond) {
		t.Fatalf("after first window: fired=%v now=%v", fired, c.Now())
	}
	if dl := c.NextDeadline(); dl != Time(6*time.Millisecond) {
		t.Fatalf("NextDeadline = %v, want 6ms", dl)
	}
	if err := c.RunUntil(Time(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 || c.Now() != Time(20*time.Millisecond) {
		t.Fatalf("after second window: fired=%v now=%v", fired, c.Now())
	}
	if dl := c.NextDeadline(); dl != Never {
		t.Fatalf("drained clock NextDeadline = %v, want Never", dl)
	}
}

// TestRunUntilTimerHandleContract exercises the documented Event
// handle rules across RunUntil boundaries: a Timer re-armed in each
// window keeps working (it drops its handle on fire), and cancelling
// before the deadline window runs prevents execution.
func TestRunUntilTimerHandleContract(t *testing.T) {
	c := NewClock()
	fires := 0
	tm := NewTimer(c, func() { fires++ })
	tm.Reset(Time(2 * time.Millisecond))
	if err := c.RunUntil(Time(3 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if fires != 1 || tm.Armed() {
		t.Fatalf("fires=%d armed=%v after first window", fires, tm.Armed())
	}
	// Re-arm beyond the next window, then cancel before it runs: the
	// handle is still valid because the event never fired.
	tm.Reset(Time(10 * time.Millisecond))
	if err := c.RunUntil(Time(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !tm.Armed() {
		t.Fatal("timer armed beyond the window must survive it")
	}
	tm.Stop()
	if err := c.RunUntil(Time(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if fires != 1 {
		t.Fatalf("cancelled timer fired: fires=%d", fires)
	}
	// Stop took the event out of the heap.
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", c.Pending())
	}
}
