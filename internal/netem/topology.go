package netem

import (
	"fmt"
	"time"

	"mpquic/internal/sim"
	"mpquic/internal/trace"
)

// PathSpec describes one of the disjoint end-to-end paths of the
// paper's Fig. 2 topology, using the Table 1 factors.
type PathSpec struct {
	// CapacityMbps is the bottleneck capacity in both directions.
	CapacityMbps float64
	// RTT is the two-way propagation delay (split evenly across the
	// two directions).
	RTT time.Duration
	// QueueDelay is the maximum bufferbloat the bottleneck queue can
	// introduce.
	QueueDelay time.Duration
	// LossRate is the per-direction random loss probability in [0,1].
	LossRate float64
}

// Validate applies the Table 1 range rule: capacity > 0, RTT and queue
// delay >= 0, loss rate in [0, 1]. A violation is a *FactorError
// naming the first factor out of range.
func (s PathSpec) Validate() error {
	switch {
	case !(s.CapacityMbps > 0):
		return &FactorError{"CapacityMbps", fmt.Sprint(s.CapacityMbps), "> 0"}
	case s.RTT < 0:
		return &FactorError{"RTT", s.RTT.String(), ">= 0"}
	case s.QueueDelay < 0:
		return &FactorError{"QueueDelay", s.QueueDelay.String(), ">= 0"}
	case !(s.LossRate >= 0 && s.LossRate <= 1):
		return &FactorError{"LossRate", fmt.Sprint(s.LossRate), "in [0, 1]"}
	}
	return nil
}

// A FactorError is a PathSpec factor outside its Table 1 range.
type FactorError struct {
	Factor string // the PathSpec field
	Value  string
	Want   string
}

func (e *FactorError) Error() string { return e.Factor + " " + e.Value + ", want " + e.Want }

// TwoPathNet is the emulated Fig. 2 network: a dual-homed client and a
// dual-homed server joined by two disjoint paths.
type TwoPathNet struct {
	Net *Network
	// ClientAddrs[i] and ServerAddrs[i] are the endpoints of path i.
	ClientAddrs [2]Addr
	ServerAddrs [2]Addr
	// Fwd[i] carries client->server traffic on path i; Rev[i] the
	// reverse direction.
	Fwd [2]*Link
	Rev [2]*Link
}

// DefaultAddrs are the interface addresses used by NewTwoPath: path 0
// is an "IPv4/WiFi-like" pair, path 1 an "IPv6/LTE-like" pair. The
// addresses are opaque labels; they exist so examples read naturally.
var DefaultAddrs = struct {
	Client [2]Addr
	Server [2]Addr
}{
	Client: [2]Addr{"10.0.1.1:49152", "10.0.2.1:49152"},
	Server: [2]Addr{"10.0.1.100:443", "10.0.2.100:443"},
}

// NewTwoPath builds the Fig. 2 topology on a fresh clock.
func NewTwoPath(clock *sim.Clock, rand *sim.Rand, specs [2]PathSpec) *TwoPathNet {
	n := New(clock, rand)
	tp := &TwoPathNet{Net: n}
	tp.ClientAddrs = DefaultAddrs.Client
	tp.ServerAddrs = DefaultAddrs.Server
	for i := 0; i < 2; i++ {
		cfg := LinkConfig{
			RateMbps:   specs[i].CapacityMbps,
			Delay:      specs[i].RTT / 2,
			QueueDelay: specs[i].QueueDelay,
			LossRate:   specs[i].LossRate,
		}
		tp.Fwd[i], tp.Rev[i] = n.Connect(tp.ClientAddrs[i], tp.ServerAddrs[i], cfg)
	}
	// Cross routes: traffic from client interface i to server interface j
	// (i != j) is not possible on disjoint paths; leaving those routes
	// absent models the disjointness.
	return tp
}

// KillPath makes path i drop every packet in both directions from now
// on (the §4.3 handover event).
func (tp *TwoPathNet) KillPath(i int) {
	tp.Fwd[i].SetDown(true)
	tp.Rev[i].SetDown(true)
}

// PathLinks returns both directions of path i (forward first) — the
// hook dynamics scripts use to mutate a whole path.
func (tp *TwoPathNet) PathLinks(i int) []*Link {
	return []*Link{tp.Fwd[i], tp.Rev[i]}
}

// SetTracer attaches t to every link of the topology, so link
// lifecycle events (down/up/reconfigured) appear in protocol traces.
func (tp *TwoPathNet) SetTracer(t trace.Tracer) {
	for i := 0; i < 2; i++ {
		tp.Fwd[i].SetTracer(t)
		tp.Rev[i].SetTracer(t)
	}
}
