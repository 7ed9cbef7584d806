// Package expdesign implements the paper's experimental-design
// methodology (§4.1): WSP-selected scenarios over the Table 1
// parameter ranges, grouped into four classes (low/high BDP ×
// with/without random losses), executed for all four protocol stacks
// with both choices of initial path and three seeded repetitions, and
// summarized as the time-ratio CDFs and experimental aggregation
// benefit boxes of Figs. 3–10.
//
// Determinism contract: every run's seed is a pure function of its
// grid coordinates (see the derivation note in experiment.go), every
// simulation runs on a virtual clock (no wall time — enforced by
// `mpq-vet walltime`), and the observability instruments of RunOpts /
// GridConfig (time-series sampling, tracing, flight recording; see
// OBSERVABILITY.md) are pure observers. Re-running any grid point —
// instrumented or not — reproduces its artifact byte-for-byte, which
// is what makes checkpoints resumable, shards mergeable, and the
// golden-grid tests possible.
package expdesign

import (
	"fmt"
	"math"
	"time"

	"mpquic/internal/netem"
	"mpquic/internal/netem/dynamics"
	"mpquic/internal/wsp"
)

// Ranges are the Table 1 experimental-design factor ranges.
type Ranges struct {
	CapacityMinMbps, CapacityMaxMbps float64
	RTTMax                           time.Duration
	QueueDelayMax                    time.Duration
	LossMax                          float64 // fraction, e.g. 0.025
}

// Table 1 of the paper.
var (
	// LowBDPRanges: capacity 0.1–100 Mbps, RTT 0–50 ms, queueing
	// 0–100 ms, loss 0–2.5 %.
	LowBDPRanges = Ranges{0.1, 100, 50 * time.Millisecond, 100 * time.Millisecond, 0.025}
	// HighBDPRanges: RTT 0–400 ms, queueing 0–2000 ms.
	HighBDPRanges = Ranges{0.1, 100, 400 * time.Millisecond, 2000 * time.Millisecond, 0.025}
)

// Class is one scenario class: the four static classes of §4.1, or a
// dynamic class whose scenarios additionally script time-varying link
// behaviour through netem/dynamics.
type Class struct {
	Name   string
	Ranges Ranges
	Losses bool
	// Seed decorrelates the WSP designs of different classes.
	Seed uint64
	// Dynamics selects the class's time-varying behaviour (one of the
	// Dyn* kinds); empty means static links, the paper's setting.
	Dynamics string
}

// The four classes of the evaluation.
var (
	LowBDPNoLoss  = Class{Name: "low-BDP-no-loss", Ranges: LowBDPRanges, Losses: false, Seed: 101}
	LowBDPLosses  = Class{Name: "low-BDP-losses", Ranges: LowBDPRanges, Losses: true, Seed: 102}
	HighBDPNoLoss = Class{Name: "high-BDP-no-loss", Ranges: HighBDPRanges, Losses: false, Seed: 103}
	HighBDPLosses = Class{Name: "high-BDP-losses", Ranges: HighBDPRanges, Losses: true, Seed: 104}
)

// Dynamics kinds. Each names a family of time-varying behaviour whose
// per-scenario parameters are extra WSP-designed factors.
const (
	// DynBursty replaces every lossy link's Bernoulli process with a
	// Gilbert–Elliott chain of the same average loss rate, with the
	// mean burst length as a designed factor.
	DynBursty = "bursty"
	// DynOscillate makes path 0's capacity follow a sinusoid around
	// its designed value (WiFi-fading); period and depth are designed
	// factors.
	DynOscillate = "oscillate"
	// DynFlaky takes path 0 down periodically; outage length and
	// period are designed factors.
	DynFlaky = "flaky"
	// DynKill takes the path down for good at Start — the paper's §4.3
	// handover event. No grid designs it; HandoverConfig and the CLI do.
	DynKill = "kill"
)

// The dynamic scenario classes (beyond the paper): the same low-BDP
// factor ranges, plus scripted link behaviour.
var (
	BurstyLossGrid  = Class{Name: "bursty-loss", Ranges: LowBDPRanges, Losses: true, Seed: 105, Dynamics: DynBursty}
	OscillatingGrid = Class{Name: "oscillating-bw", Ranges: LowBDPRanges, Losses: false, Seed: 106, Dynamics: DynOscillate}
	FlakyPathGrid   = Class{Name: "flaky-path", Ranges: LowBDPRanges, Losses: false, Seed: 107, Dynamics: DynFlaky}
)

// PaperScenarioCount is the per-class scenario count of §4.1.
const PaperScenarioCount = 253

// Ranges of the dynamic-class extra factors.
const (
	// Gilbert–Elliott mean burst length, packets.
	minBurstPkts, maxBurstPkts = 2.0, 16.0
	// Capacity-oscillation period and relative depth.
	minOscPeriod, maxOscPeriod = 500 * time.Millisecond, 4 * time.Second
	minOscDepth, maxOscDepth   = 0.2, 0.8
	// Flaky-path outage cycle and outage length.
	minFlapPeriod, maxFlapPeriod = 2 * time.Second, 8 * time.Second
	minFlapOutage, maxFlapOutage = 100 * time.Millisecond, 1 * time.Second
)

// Dynamics declares a scenario's scripted behaviour. The zero value
// (absent in JSON) means a static scenario. Parameters irrelevant to
// the Kind are zero.
type Dynamics struct {
	Kind string `json:"kind"`
	// Path is the scenario path index the script targets (bursty
	// applies to every lossy path instead).
	Path int `json:"path,omitempty"`
	// MeanBurstPkts is the Gilbert–Elliott mean burst length.
	MeanBurstPkts float64 `json:"mean_burst_pkts,omitempty"`
	// Period is the oscillation or flap cycle.
	Period time.Duration `json:"period,omitempty"`
	// Depth is the relative capacity-oscillation amplitude in (0,1).
	Depth float64 `json:"depth,omitempty"`
	// Outage is how long the flaky path stays down each cycle.
	Outage time.Duration `json:"outage,omitempty"`
	// Start is when the scripted behaviour begins. Zero starts an
	// oscillation at once and a flaky path's first outage half a period
	// in, so the handshake gets a fighting chance and every cycle
	// thereafter is identical.
	Start time.Duration `json:"start,omitempty"`
}

// script builds the netem/dynamics script the declaration stands for,
// against topology path `path` whose designed capacity is meanMbps.
// DynBursty is a loss model, not a script: applyDynamics installs it.
func (d Dynamics) script(path int, meanMbps float64) dynamics.Script {
	switch d.Kind {
	case DynKill:
		return dynamics.KillAt(path, d.Start)
	case DynFlaky:
		first := d.Start
		if first == 0 {
			first = d.Period / 2
		}
		return dynamics.Flap(path, first, d.Outage, d.Period)
	case DynOscillate:
		s := dynamics.OscillateRate(path, meanMbps, d.Depth, d.Period)
		for i := range s.Events {
			s.Events[i].At += d.Start
		}
		return s
	default:
		panic(fmt.Sprintf("expdesign: no script for dynamics kind %q", d.Kind))
	}
}

// Scenario is one emulated two-path environment, optionally with
// scripted dynamics.
type Scenario struct {
	ID    int
	Class string
	Paths [2]netem.PathSpec
	// Dynamics, when non-nil, scripts time-varying behaviour on top of
	// the paths' base configuration.
	Dynamics *Dynamics `json:",omitempty"`
}

// String renders a compact description.
func (s Scenario) String() string {
	p := s.Paths
	str := fmt.Sprintf("%s#%d [%.2fMbps/%v/%v/%.2f%% | %.2fMbps/%v/%v/%.2f%%]",
		s.Class, s.ID,
		p[0].CapacityMbps, p[0].RTT, p[0].QueueDelay, p[0].LossRate*100,
		p[1].CapacityMbps, p[1].RTT, p[1].QueueDelay, p[1].LossRate*100)
	if d := s.Dynamics; d != nil {
		switch d.Kind {
		case DynBursty:
			str += fmt.Sprintf(" +GE(burst=%.1fpkt)", d.MeanBurstPkts)
		case DynOscillate:
			str += fmt.Sprintf(" +osc(path%d, %v, ±%.0f%%)", d.Path, d.Period, d.Depth*100)
		case DynFlaky:
			str += fmt.Sprintf(" +flap(path%d, %v down per %v)", d.Path, d.Outage, d.Period)
		case DynKill:
			str += fmt.Sprintf(" +kill(path%d at %v)", d.Path, d.Start)
		}
	}
	return str
}

// dims is the design dimensionality: (capacity, RTT, queueing) per
// path, plus loss per path in lossy classes, plus the dynamic-class
// extra factors.
func dims(c Class) int {
	d := 6
	if c.Losses {
		d += 2
	}
	switch c.Dynamics {
	case DynBursty:
		d++ // mean burst length
	case DynOscillate, DynFlaky:
		d += 2 // period + depth, or period + outage
	}
	return d
}

// linMap maps x∈[0,1) onto [lo,hi] linearly.
func linMap(x, lo, hi float64) float64 { return lo + x*(hi-lo) }

// durMap maps x∈[0,1) onto a duration range linearly.
func durMap(x float64, lo, hi time.Duration) time.Duration {
	return lo + time.Duration(x*float64(hi-lo))
}

// GenerateScenarios builds n WSP-selected scenarios for a class.
// Capacity is mapped logarithmically across its three decades (0.1–100
// Mbps); the remaining factors map linearly, exactly as an
// experimental-design study spreads heterogeneous ranges. Dynamic
// classes consume extra design dimensions for their script parameters,
// so those, too, are space-filling rather than fixed.
func GenerateScenarios(c Class, n int) []Scenario {
	pts := wsp.Select(n, dims(c), c.Seed)
	out := make([]Scenario, len(pts))
	for i, p := range pts {
		var sc Scenario
		sc.ID = i
		sc.Class = c.Name
		for path := 0; path < 2; path++ {
			spec := netem.PathSpec{
				CapacityMbps: logMap(p[path], c.Ranges.CapacityMinMbps, c.Ranges.CapacityMaxMbps),
				RTT:          time.Duration(p[2+path] * float64(c.Ranges.RTTMax)),
				QueueDelay:   time.Duration(p[4+path] * float64(c.Ranges.QueueDelayMax)),
			}
			if c.Losses {
				spec.LossRate = p[6+path] * c.Ranges.LossMax
			}
			sc.Paths[path] = spec
		}
		extra := 6
		if c.Losses {
			extra = 8
		}
		switch c.Dynamics {
		case DynBursty:
			sc.Dynamics = &Dynamics{
				Kind:          DynBursty,
				MeanBurstPkts: linMap(p[extra], minBurstPkts, maxBurstPkts),
			}
		case DynOscillate:
			sc.Dynamics = &Dynamics{
				Kind:   DynOscillate,
				Path:   0,
				Period: durMap(p[extra], minOscPeriod, maxOscPeriod),
				Depth:  linMap(p[extra+1], minOscDepth, maxOscDepth),
			}
		case DynFlaky:
			sc.Dynamics = &Dynamics{
				Kind:   DynFlaky,
				Path:   0,
				Period: durMap(p[extra], minFlapPeriod, maxFlapPeriod),
				Outage: durMap(p[extra+1], minFlapOutage, maxFlapOutage),
			}
		}
		out[i] = sc
	}
	return out
}

// logMap maps x∈[0,1) onto [lo,hi] logarithmically.
func logMap(x, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, x)
}
