package rtt

import (
	"testing"
	"testing/quick"
	"time"
)

func TestFirstSampleInitializes(t *testing.T) {
	e := New(DefaultQUIC())
	if e.HasSample() {
		t.Fatal("fresh estimator has sample")
	}
	e.Update(100*time.Millisecond, 0)
	if !e.HasSample() || e.SmoothedRTT() != 100*time.Millisecond {
		t.Fatalf("srtt %v", e.SmoothedRTT())
	}
	if e.rttvar != 50*time.Millisecond {
		t.Fatalf("rttvar %v", e.rttvar)
	}
	if e.minRTT != 100*time.Millisecond {
		t.Fatalf("min %v", e.minRTT)
	}
}

func TestSmoothingConverges(t *testing.T) {
	e := New(DefaultQUIC())
	for i := 0; i < 100; i++ {
		e.Update(80*time.Millisecond, 0)
	}
	if d := e.SmoothedRTT() - 80*time.Millisecond; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("srtt %v did not converge", e.SmoothedRTT())
	}
}

func TestAckDelaySubtractedInPreciseMode(t *testing.T) {
	e := New(DefaultQUIC())
	e.Update(50*time.Millisecond, 0) // min RTT = 50ms
	e.Update(100*time.Millisecond, 30*time.Millisecond)
	if e.LatestRTT() != 70*time.Millisecond {
		t.Fatalf("latest %v, want 70ms", e.LatestRTT())
	}
}

func TestAckDelayNotSubtractedBelowMinRTT(t *testing.T) {
	e := New(DefaultQUIC())
	e.Update(50*time.Millisecond, 0)
	e.Update(60*time.Millisecond, 30*time.Millisecond) // 60-30 < min 50
	if e.LatestRTT() != 60*time.Millisecond {
		t.Fatalf("latest %v, want raw 60ms", e.LatestRTT())
	}
}

func TestCoarseModeIgnoresAckDelayAndQuantizes(t *testing.T) {
	e := New(DefaultTCP())
	e.Update(10400*time.Microsecond, 5*time.Millisecond)
	if e.LatestRTT() != 10*time.Millisecond {
		t.Fatalf("latest %v, want quantized 10ms", e.LatestRTT())
	}
	e2 := New(DefaultTCP())
	e2.Update(100*time.Microsecond, 0)
	if e2.LatestRTT() != time.Millisecond {
		t.Fatalf("sub-granularity sample %v, want 1ms floor", e2.LatestRTT())
	}
}

func TestRTOBeforeSamples(t *testing.T) {
	e := New(DefaultQUIC())
	if e.RTO() != 500*time.Millisecond {
		t.Fatalf("initial RTO %v", e.RTO())
	}
	e2 := New(DefaultTCP())
	if e2.RTO() != time.Second {
		t.Fatalf("initial TCP RTO %v", e2.RTO())
	}
}

func TestRTOFloorsAndBackoff(t *testing.T) {
	e := New(DefaultQUIC())
	e.Update(10*time.Millisecond, 0)
	// srtt+4var = 10+20=30ms < 200ms floor.
	if e.RTO() != 200*time.Millisecond {
		t.Fatalf("RTO %v, want floored 200ms", e.RTO())
	}
	e.Backoff()
	if e.RTO() != 400*time.Millisecond {
		t.Fatalf("backed-off RTO %v", e.RTO())
	}
	e.Backoff()
	if e.RTO() != 800*time.Millisecond {
		t.Fatalf("RTO %v", e.RTO())
	}
	e.ResetBackoff()
	if e.RTO() != 200*time.Millisecond {
		t.Fatalf("RTO after reset %v", e.RTO())
	}
	// New sample also clears backoff.
	e.Backoff()
	e.Update(10*time.Millisecond, 0)
	if e.RTO() != 200*time.Millisecond {
		t.Fatalf("RTO after sample %v", e.RTO())
	}
}

func TestRTOCapped(t *testing.T) {
	e := New(DefaultQUIC())
	e.Update(time.Second, 0)
	for i := 0; i < 40; i++ {
		e.Backoff()
	}
	if e.RTO() != 60*time.Second {
		t.Fatalf("RTO %v, want capped 60s", e.RTO())
	}
}

func TestNonPositiveSamplesIgnored(t *testing.T) {
	e := New(DefaultQUIC())
	e.Update(0, 0)
	e.Update(-time.Second, 0)
	if e.HasSample() {
		t.Fatal("bogus samples accepted")
	}
}

func TestMinRTTTracksSmallest(t *testing.T) {
	e := New(DefaultQUIC())
	e.Update(100*time.Millisecond, 0)
	e.Update(40*time.Millisecond, 0)
	e.Update(90*time.Millisecond, 0)
	if e.minRTT != 40*time.Millisecond {
		t.Fatalf("min %v", e.minRTT)
	}
}

// Property: srtt stays within the sample envelope and RTO >= MinRTO.
func TestEstimatorBoundsProperty(t *testing.T) {
	cfg := DefaultQUIC()
	f := func(samplesMS []uint16) bool {
		e := New(cfg)
		lo, hi := time.Duration(1<<62), time.Duration(0)
		for _, ms := range samplesMS {
			s := time.Duration(ms%1000+1) * time.Millisecond
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
			e.Update(s, 0)
		}
		if !e.HasSample() {
			return true
		}
		if e.SmoothedRTT() < lo || e.SmoothedRTT() > hi {
			return false
		}
		return e.RTO() >= cfg.MinRTO && e.minRTT == lo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
