// Package dynamics scripts time-varying link behaviour over virtual
// time — the reproduction's equivalent of driving Linux netem with
// `tc qdisc change` from a Mininet experiment script.
//
// A Script is a list of timestamped Events, each applying a Change
// (rate, down/up) to one path of a topology. Scripts run on the
// simulation clock, so they are exactly reproducible: the same script
// and seed yield the same packet-level outcome every run.
// Recurring patterns (WiFi-fading bandwidth oscillation, periodic
// flaky-link outages) are expressed compactly with Repeat, and the
// generator functions below build the common shapes.
//
// The package also provides a pluggable loss process for
// netem.Link.SetLossModel: the two-state Gilbert–Elliott bursty-loss
// model (see loss.go). The memoryless one is the link's own LossRate.
package dynamics

import (
	"math"
	"sort"
	"time"

	"mpquic/internal/netem"
	"mpquic/internal/sim"
)

// Change mutates one path. Nil fields leave the corresponding factor
// untouched, so a Change is a sparse delta, not a full configuration.
// A link's delay and loss rate are fixed when it is built (see netem).
type Change struct {
	// RateMbps replaces the capacity of both directions, re-deriving
	// each link's queue capacity from its unchanged QueueDelay bound.
	RateMbps *float64
	// Down takes the path down (true) or back up (false).
	Down *bool
}

// apply pushes the change onto one link.
func (c Change) apply(l *netem.Link) {
	if c.RateMbps != nil {
		l.SetRate(*c.RateMbps)
	}
	if c.Down != nil {
		l.SetDown(*c.Down)
	}
}

// Rate builds a capacity-only change.
func Rate(mbps float64) Change { return Change{RateMbps: &mbps} }

// Down builds a link-down (true) or link-up (false) change.
func Down(down bool) Change { return Change{Down: &down} }

// Event is one scripted change at a virtual time.
type Event struct {
	At     time.Duration
	Path   int
	Change Change
}

// Target is anything whose paths a script can mutate. Both directions
// of a path receive every change. *netem.TwoPathNet implements it.
type Target interface {
	PathLinks(path int) []*netem.Link
}

// Script is a deterministic schedule of link changes.
type Script struct {
	// Events, in non-decreasing At order (Apply sorts a copy if not).
	Events []Event
	// Repeat, when positive, re-runs the whole event list shifted by
	// one Repeat period after each pass, turning the script into a
	// recurring pattern. Zero means run once.
	Repeat time.Duration
}

// Apply schedules the script on clock against tg. Scheduling is lazy:
// only the next pending event occupies the event heap, so unbounded
// repeating scripts cost O(1) memory. Events are applied in timestamp
// order (ties in listed order); each event's change is applied to
// every link of its path, forward direction first.
func (s Script) Apply(clock *sim.Clock, tg Target) {
	if len(s.Events) == 0 {
		return
	}
	events := append([]Event(nil), s.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	var schedule func(idx int, offset time.Duration)
	schedule = func(idx int, offset time.Duration) {
		if idx == len(events) {
			if s.Repeat <= 0 {
				return
			}
			idx, offset = 0, offset+s.Repeat
		}
		ev := events[idx]
		clock.At(sim.Time(ev.At+offset), func() {
			for _, l := range tg.PathLinks(ev.Path) {
				ev.Change.apply(l)
			}
			schedule(idx+1, offset)
		})
	}
	schedule(0, 0)
}

// KillAt scripts the §4.3 handover event: path goes permanently down
// at the given time.
func KillAt(path int, at time.Duration) Script {
	return Script{Events: []Event{{At: at, Path: path, Change: Down(true)}}}
}

// Flap scripts a periodically failing link: starting at firstDown, the
// path goes down for outage, comes back, and repeats every period.
// outage must be shorter than period.
func Flap(path int, firstDown, outage, period time.Duration) Script {
	if outage >= period {
		panic("dynamics: Flap outage must be shorter than the period")
	}
	return Script{
		Events: []Event{
			{At: firstDown, Path: path, Change: Down(true)},
			{At: firstDown + outage, Path: path, Change: Down(false)},
		},
		Repeat: period,
	}
}

// OscillateSteps is the number of rate samples per oscillation period.
const OscillateSteps = 8

// OscillateRate scripts WiFi-fading-like bandwidth oscillation: the
// path's capacity follows a sinusoid around mean with the given
// relative depth (0 < depth < 1), sampled OscillateSteps times per
// period. The first sample fires at one step into the period (at t=0
// the link already runs at its configured mean).
func OscillateRate(path int, meanMbps, depth float64, period time.Duration) Script {
	if depth <= 0 || depth >= 1 {
		panic("dynamics: OscillateRate depth must be in (0,1)")
	}
	step := period / OscillateSteps
	events := make([]Event, OscillateSteps)
	for i := 1; i <= OscillateSteps; i++ {
		rate := meanMbps * (1 + depth*sinTurns(float64(i)/OscillateSteps))
		events[i-1] = Event{At: time.Duration(i) * step, Path: path, Change: Rate(rate)}
	}
	return Script{Events: events, Repeat: period}
}

// sinTurns is sin of x expressed in turns (x=1 is one full period).
func sinTurns(x float64) float64 { return math.Sin(2 * math.Pi * x) }
