// Package rtt implements round-trip-time estimation.
//
// Two operating modes reflect the protocols compared in the paper:
//
//   - Precise (QUIC): every ACK yields an unambiguous sample because
//     retransmissions get new packet numbers, and the peer's reported
//     ack delay is subtracted (§2). This is the "precise path latency
//     estimation" the paper credits for MPQUIC's scheduler accuracy.
//   - Coarse (TCP): Karn's algorithm discards samples for
//     retransmitted segments, and samples are quantized to a clock
//     granularity, reproducing the RTT ambiguity the paper blames for
//     the Linux MPTCP scheduler's slow-path bursts (§4.1).
package rtt

import "time"

// Config tunes an Estimator.
type Config struct {
	// Granularity quantizes samples (TCP mode); zero keeps microsecond
	// precision (QUIC mode).
	Granularity time.Duration
	// InitialRTO is the retransmission timeout before any sample.
	InitialRTO time.Duration
	// MinRTO floors the computed RTO.
	MinRTO time.Duration
	// MaxRTO caps the computed RTO (including backoff).
	MaxRTO time.Duration
}

// DefaultQUIC mirrors quic-go's loss recovery constants.
func DefaultQUIC() Config {
	return Config{
		InitialRTO: 500 * time.Millisecond,
		MinRTO:     200 * time.Millisecond,
		MaxRTO:     60 * time.Second,
	}
}

// DefaultTCP mirrors Linux TCP (HZ=1000 → 1 ms granularity, 200 ms min
// RTO, 1 s initial RTO after the handshake).
func DefaultTCP() Config {
	return Config{
		Granularity: time.Millisecond,
		InitialRTO:  time.Second,
		MinRTO:      200 * time.Millisecond,
		MaxRTO:      120 * time.Second,
	}
}

// Estimator tracks smoothed RTT per RFC 6298.
type Estimator struct {
	cfg      Config
	srtt     time.Duration
	rttvar   time.Duration
	minRTT   time.Duration
	latest   time.Duration
	samples  int
	backoffs int
}

// New returns an estimator with no samples.
func New(cfg Config) *Estimator {
	return &Estimator{cfg: cfg}
}

// Update records a sample. ackDelay is the peer-reported delay, only
// honored in precise mode (zero granularity); coarse mode ignores it,
// as TCP has no equivalent signal.
func (e *Estimator) Update(sample, ackDelay time.Duration) {
	if sample <= 0 {
		return
	}
	if e.cfg.Granularity > 0 {
		ackDelay = 0
		sample = sample.Round(e.cfg.Granularity)
		if sample < e.cfg.Granularity {
			sample = e.cfg.Granularity
		}
	}
	if e.minRTT == 0 || sample < e.minRTT {
		e.minRTT = sample
	}
	// Subtract ack delay only when it keeps the sample above min RTT
	// (QUIC's rule, preventing underestimation).
	adjusted := sample
	if ackDelay > 0 && sample-ackDelay >= e.minRTT {
		adjusted = sample - ackDelay
	}
	e.latest = adjusted
	if e.samples == 0 {
		e.srtt = adjusted
		e.rttvar = adjusted / 2
	} else {
		d := e.srtt - adjusted
		if d < 0 {
			d = -d
		}
		e.rttvar = (3*e.rttvar + d) / 4
		e.srtt = (7*e.srtt + adjusted) / 8
	}
	e.samples++
	e.backoffs = 0
}

// HasSample reports whether at least one sample was recorded.
func (e *Estimator) HasSample() bool { return e.samples > 0 }

// SmoothedRTT returns the smoothed RTT (zero before any sample).
func (e *Estimator) SmoothedRTT() time.Duration { return e.srtt }

// LatestRTT returns the last adjusted sample.
func (e *Estimator) LatestRTT() time.Duration { return e.latest }

// Backoff doubles subsequent RTOs (exponential backoff after timeout).
func (e *Estimator) Backoff() { e.backoffs++ }

// ResetBackoff clears timeout backoff (on forward progress).
func (e *Estimator) ResetBackoff() { e.backoffs = 0 }

// RTO computes the retransmission timeout, including backoff.
func (e *Estimator) RTO() time.Duration {
	var rto time.Duration
	if e.samples == 0 {
		rto = e.cfg.InitialRTO
	} else {
		rttvar4 := 4 * e.rttvar
		if e.cfg.Granularity > 0 && rttvar4 < e.cfg.Granularity {
			rttvar4 = e.cfg.Granularity
		}
		rto = e.srtt + rttvar4
	}
	if rto < e.cfg.MinRTO {
		rto = e.cfg.MinRTO
	}
	for i := 0; i < e.backoffs; i++ {
		rto *= 2
		if rto >= e.cfg.MaxRTO {
			return e.cfg.MaxRTO
		}
	}
	if rto > e.cfg.MaxRTO {
		rto = e.cfg.MaxRTO
	}
	return rto
}
