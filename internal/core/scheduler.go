package core

import "mpquic/internal/wire"

// schedule picks the path for the next data packet plus the set of
// paths the packet should be duplicated onto (§3, Packet Scheduling).
//
// The base heuristic mirrors the Linux MPTCP default scheduler: prefer
// the lowest-smoothed-RTT path whose congestion window is not full.
// The two MPQUIC differences from §3 are layered on top:
//
//   - frames (including retransmissions and control frames) are not
//     pinned to a path — the caller feeds whatever is pending into the
//     packet built for the chosen path;
//   - paths with no RTT estimate yet don't make the sender wait a
//     probe RTT: traffic scheduled on a measured path is duplicated
//     onto them, so a brand-new path carries data in its very first
//     packet without risking head-of-line blocking.
//
// Both results are connection-owned scratch, valid until the next call.
func (c *Conn) schedule() (primary *Path, duplicates []*Path) {
	candidates := c.schedulable()
	if len(candidates) == 0 {
		return nil, nil
	}
	switch c.cfg.Scheduler {
	case SchedRoundRobin:
		return c.scheduleRoundRobin(candidates), nil
	case SchedLowestRTTNoDup:
		return c.scheduleLowestRTT(candidates), nil
	default:
		primary = c.scheduleLowestRTT(candidates)
		if primary == nil {
			return nil, nil
		}
		// Duplicate onto unmeasured paths with window space.
		duplicates = c.duplicates[:0]
		for _, p := range candidates {
			if p != primary && !p.est.HasSample() && p.cwndAvailable(wire.MaxPacketSize) {
				duplicates = append(duplicates, p)
			}
		}
		c.duplicates = duplicates
		return primary, duplicates
	}
}

// schedulable returns the paths the scheduler may use: those not
// (locally or remotely) marked potentially failed — unless every path
// is marked, in which case all paths are candidates (there is
// nothing better to try, §4.3). The list is connection-owned scratch,
// valid until the next call.
//
//mpq:noescape
func (c *Conn) schedulable() []*Path {
	out := c.candidates[:0]
	for _, p := range c.paths {
		if !p.potentiallyFailed && !p.remotePF {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		out = append(out, c.paths...)
	}
	c.candidates = out
	return out
}

// scheduleLowestRTT picks the measured path with the lowest smoothed
// RTT that has window space; if only unmeasured paths have space, the
// freshest of those is used directly.
func (c *Conn) scheduleLowestRTT(candidates []*Path) *Path {
	var best *Path
	for _, p := range candidates {
		if !p.est.HasSample() || !p.cwndAvailable(wire.MaxPacketSize) {
			continue
		}
		if best == nil || p.est.SmoothedRTT() < best.est.SmoothedRTT() {
			best = p
		}
	}
	if best != nil {
		return best
	}
	for _, p := range candidates {
		if !p.est.HasSample() && p.cwndAvailable(wire.MaxPacketSize) {
			return p
		}
	}
	return nil
}

// scheduleRoundRobin rotates among paths with window space.
func (c *Conn) scheduleRoundRobin(candidates []*Path) *Path {
	n := len(candidates)
	for i := 0; i < n; i++ {
		p := candidates[(c.rrNext+i)%n]
		if p.cwndAvailable(wire.MaxPacketSize) {
			c.rrNext = (c.rrNext + i + 1) % n
			return p
		}
	}
	return nil
}
