// Package eventhandle exercises the eventhandle analyzer: *sim.Event
// handles must not outlive the current call — no struct fields,
// globals, map/slice elements, returns or channel sends. sim.Timer is
// the sanctioned holder.
package eventhandle

import (
	"time"

	"mpquic/internal/sim"
)

type badHolder struct {
	ev *sim.Event // want `struct field of type \*sim\.Event holds a poolable handle`
}

// goodHolder keeps a re-armable deadline the sanctioned way.
type goodHolder struct {
	timer *sim.Timer
}

var globalEv *sim.Event

func leakReturn(c *sim.Clock) *sim.Event { // want `returning \*sim\.Event hands out a handle`
	return c.After(time.Millisecond, func() {})
}

func leakGlobal(c *sim.Clock) {
	globalEv = c.After(time.Millisecond, func() {}) // want `storing \*sim\.Event in a field/map/global`
}

func leakField(h *badHolder, c *sim.Clock) {
	h.ev = c.After(time.Millisecond, func() {}) // want `storing \*sim\.Event in a field/map/global`
}

func leakMap(m map[int]*sim.Event, c *sim.Clock) {
	m[1] = c.After(time.Millisecond, func() {}) // want `storing \*sim\.Event in a field/map/global`
}

func leakChannel(ch chan *sim.Event, c *sim.Clock) {
	ch <- c.After(time.Millisecond, func() {}) // want `sending \*sim\.Event on a channel`
}

// localHandle is fine: the handle never outlives the activation.
func localHandle(c *sim.Clock) bool {
	ev := c.After(time.Millisecond, func() {})
	ev.Cancel()
	return ev.Cancelled()
}

// timerUse is the sanctioned long-lived deadline.
func timerUse(c *sim.Clock, h *goodHolder) {
	h.timer = sim.NewTimer(c, func() {})
	h.timer.ResetAfter(time.Millisecond)
}
