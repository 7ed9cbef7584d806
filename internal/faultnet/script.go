package faultnet

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Op is one scripted fault transition.
type Op int

// Scripted fault operations.
const (
	// OpKill permanently kills the path's current socket: the
	// underlying conn is closed and every later operation fails with
	// ErrSocketDead — until a rebind wraps a fresh socket after an
	// OpRestore.
	OpKill Op = iota
	// OpRestore ends a kill window: sockets wrapped from now on are
	// healthy. It cannot resurrect the killed socket itself.
	OpRestore
	// OpBlackholeOn starts a blackhole window: reads swallow every
	// datagram, writes report success and send nothing.
	OpBlackholeOn
	// OpBlackholeOff ends the innermost blackhole window.
	OpBlackholeOff
)

// String names the operation (script round-trips and test output).
func (o Op) String() string {
	switch o {
	case OpKill:
		return "kill"
	case OpRestore:
		return "restore"
	case OpBlackholeOn:
		return "blackhole-on"
	case OpBlackholeOff:
		return "blackhole-off"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Event is one scripted fault at a clock offset, applied to one path.
type Event struct {
	At   time.Duration
	Path int
	Op   Op
}

// Script is a deterministic fault timeline, the faultnet counterpart
// of netem/dynamics.Script (which mutates emulated links where this
// mutates real sockets).
type Script struct {
	// Events, in any order; consumers sort by At (ties keep listed
	// order).
	Events []Event
}

// KillAt scripts the §4.3 handover fault on the live path: the
// socket dies permanently at the given offset.
func KillAt(path int, at time.Duration) Script {
	return Script{Events: []Event{{At: at, Path: path, Op: OpKill}}}
}

// RestoreAt scripts the end of a kill window: rebinds after this
// offset succeed again.
func RestoreAt(path int, at time.Duration) Script {
	return Script{Events: []Event{{At: at, Path: path, Op: OpRestore}}}
}

// Blackhole scripts a traffic blackhole starting at the given offset;
// dur <= 0 leaves it open forever.
func Blackhole(path int, at, dur time.Duration) Script {
	s := Script{Events: []Event{{At: at, Path: path, Op: OpBlackholeOn}}}
	if dur > 0 {
		s.Events = append(s.Events, Event{At: at + dur, Path: path, Op: OpBlackholeOff})
	}
	return s
}

// eventsFor extracts one path's events, sorted by At (stable, so
// same-instant events keep their listed order).
func (s Script) eventsFor(path int) []Event {
	var out []Event
	for _, ev := range s.Events {
		if ev.Path == path {
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Parse decodes the -chaos flag grammar: semicolon-separated clauses,
// each either a rate/seed setting or a scripted event.
//
//	seed=42                  fault-stream seed (a bare integer works too)
//	drop=0.01                probabilistic rates, in [0,1]
//	dup=0.01
//	corrupt=0.005
//	readerr=0.02
//	writeerr=0.02
//	kill@300ms:0             kill path 0's socket at t=300ms
//	restore@1.2s:0           end path 0's kill window at t=1.2s
//	blackhole@250ms:1        blackhole path 1 from t=250ms, forever
//	blackhole@250ms+500ms:1  ... for 500ms
//
// Example: "seed=7;drop=0.01;kill@300ms:0;restore@1.2s:0".
func Parse(spec string) (seed uint64, rates Rates, script Script, err error) {
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if strings.Contains(clause, "@") {
			ev, perr := parseEvent(clause)
			if perr != nil {
				return 0, Rates{}, Script{}, perr
			}
			script.Events = append(script.Events, ev...)
			continue
		}
		key, val, found := strings.Cut(clause, "=")
		if !found {
			// A bare integer clause is a seed.
			n, perr := strconv.ParseUint(clause, 10, 64)
			if perr != nil {
				return 0, Rates{}, Script{}, fmt.Errorf("faultnet: bad clause %q (want key=value, an event, or a seed)", clause)
			}
			seed = n
			continue
		}
		if key == "seed" {
			n, perr := strconv.ParseUint(val, 10, 64)
			if perr != nil {
				return 0, Rates{}, Script{}, fmt.Errorf("faultnet: bad seed %q", val)
			}
			seed = n
			continue
		}
		rate, perr := strconv.ParseFloat(val, 64)
		if perr != nil || !(rate >= 0 && rate <= 1) {
			return 0, Rates{}, Script{}, fmt.Errorf("faultnet: bad rate %q (want a probability in [0,1])", clause)
		}
		switch key {
		case "drop":
			rates.Drop = rate
		case "dup":
			rates.Dup = rate
		case "corrupt":
			rates.Corrupt = rate
		case "readerr":
			rates.ReadErr = rate
		case "writeerr":
			rates.WriteErr = rate
		default:
			return 0, Rates{}, Script{}, fmt.Errorf("faultnet: unknown rate %q", key)
		}
	}
	return seed, rates, script, nil
}

// parseEvent decodes one "op@time[+dur]:path" clause into its events.
func parseEvent(clause string) ([]Event, error) {
	name, rest, _ := strings.Cut(clause, "@")
	times, pathStr, found := strings.Cut(rest, ":")
	if !found {
		return nil, fmt.Errorf("faultnet: event %q needs a :path suffix", clause)
	}
	path, err := strconv.Atoi(pathStr)
	if err != nil || path < 0 {
		return nil, fmt.Errorf("faultnet: bad path in %q", clause)
	}
	atStr, durStr, hasDur := strings.Cut(times, "+")
	at, err := time.ParseDuration(atStr)
	if err != nil || at < 0 {
		return nil, fmt.Errorf("faultnet: bad time in %q", clause)
	}
	var dur time.Duration
	if hasDur {
		if dur, err = time.ParseDuration(durStr); err != nil || dur <= 0 {
			return nil, fmt.Errorf("faultnet: bad duration in %q", clause)
		}
	}
	switch name {
	case "kill":
		return KillAt(path, at).Events, nil
	case "restore":
		return RestoreAt(path, at).Events, nil
	case "blackhole":
		return Blackhole(path, at, dur).Events, nil
	default:
		return nil, fmt.Errorf("faultnet: unknown event %q (want kill, restore or blackhole)", name)
	}
}
