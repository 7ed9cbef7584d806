package expdesign

import (
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/core"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
)

// HandoverConfig parameterizes the §4.3 network-handover scenario: a
// smartphone on a bad WiFi (initial, lower latency) and a good
// cellular network; the WiFi misbehaves mid-connection, by default by
// dying outright.
type HandoverConfig struct {
	InitialRTT   time.Duration // paper: 15 ms
	SecondRTT    time.Duration // paper: 25 ms
	CapacityMbps float64
	Duration     time.Duration
	// PathsFrameOnFailure toggles the §4.3 optimization (ablation).
	PathsFrameOnFailure bool
	Seed                uint64
	// Failure is how the initial path misbehaves from Failure.Start on
	// (paper: DynKill at 3 s): DynKill, DynFlaky — a link on the edge
	// of coverage — or DynOscillate, WiFi fading.
	Failure Dynamics
}

// DefaultHandoverConfig mirrors Fig. 11.
func DefaultHandoverConfig() HandoverConfig {
	return HandoverConfig{
		InitialRTT:          15 * time.Millisecond,
		SecondRTT:           25 * time.Millisecond,
		CapacityMbps:        10,
		Duration:            15 * time.Second,
		PathsFrameOnFailure: true,
		Seed:                1,
		Failure:             Dynamics{Kind: DynKill, Start: 3 * time.Second},
	}
}

// HandoverResult is the Fig. 11 series plus diagnostic counters.
type HandoverResult struct {
	Samples []apps.ReqRespSample
	// ClientMarkedPF reports whether the client detected the failure.
	ClientMarkedPF bool
	// ServerSawPathsFrame reports whether the PATHS frame reached the
	// server (the mechanism that spares it an RTO, §4.3).
	ServerSawPathsFrame bool
}

// RunHandover executes the §4.3 request/response scenario over MPQUIC
// and returns the delay-vs-time series of Fig. 11. The initial path's
// misbehaviour is the netem/dynamics script of Failure; the default
// reproduces the paper's hard failure exactly.
func RunHandover(hc HandoverConfig) HandoverResult {
	clock := sim.NewClock()
	clock.Limit = sim.DefaultEventLimit
	tp := netem.NewTwoPath(clock, sim.NewRand(hc.Seed), [2]netem.PathSpec{
		{CapacityMbps: hc.CapacityMbps, RTT: hc.InitialRTT, QueueDelay: 100 * time.Millisecond},
		{CapacityMbps: hc.CapacityMbps, RTT: hc.SecondRTT, QueueDelay: 100 * time.Millisecond},
	})
	cfg := core.DefaultConfig()
	cfg.PathsFrameOnFailure = hc.PathsFrameOnFailure
	cfg.HandshakeSeed = hc.Seed

	lis := core.Listen(tp.Net, cfg, tp.ServerAddrs[:])
	var res HandoverResult
	apps.NewEchoServerWithPathsHook(lis, func() { res.ServerSawPathsFrame = true })

	client := core.Dial(tp.Net, cfg, core.NewConnID(hc.Seed), tp.ClientAddrs[:], tp.ServerAddrs[:])
	rr := apps.NewReqRespClient(client, clock, hc.Duration)
	hc.Failure.script(0, hc.CapacityMbps).Apply(clock, tp)
	clock.RunUntil(sim.Time(hc.Duration + 5*time.Second))

	res.Samples = rr.Samples()
	if p0 := client.PathByID(0); p0 != nil {
		res.ClientMarkedPF = p0.PotentiallyFailed()
	}
	return res
}
