package apps

import (
	"testing"
	"time"

	"mpquic/internal/core"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
)

func newPair(t *testing.T) (*sim.Clock, *core.Listener, *core.Conn) {
	t.Helper()
	clock := sim.NewClock()
	clock.Limit = 20_000_000
	tp := netem.NewTwoPath(clock, sim.NewRand(2), [2]netem.PathSpec{
		{CapacityMbps: 10, RTT: 20 * time.Millisecond, QueueDelay: 100 * time.Millisecond},
		{CapacityMbps: 10, RTT: 30 * time.Millisecond, QueueDelay: 100 * time.Millisecond},
	})
	cfg := core.DefaultConfig()
	lis := core.Listen(tp.Net, cfg, tp.ServerAddrs[:])
	client := core.Dial(tp.Net, cfg, 1, tp.ClientAddrs[:], tp.ServerAddrs[:])
	return clock, lis, client
}

func TestParseAndFormatGet(t *testing.T) {
	n, err := ParseGet(FormatGet(123456))
	if err != nil || n != 123456 {
		t.Fatalf("round trip: %d %v", n, err)
	}
	for _, bad := range []string{"", "GET", "PUT 5", "GET x", "GET 1 2"} {
		if _, err := ParseGet(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestGetClientServerEndToEnd(t *testing.T) {
	clock, lis, client := newPair(t)
	NewGetServer(lis)
	var res *GetResult
	NewGetClient(client, 512<<10, func() time.Duration { return clock.Now().Duration() },
		func(r GetResult) { res = &r })
	clock.RunUntil(sim.Time(30 * time.Second))
	if res == nil {
		t.Fatal("no result")
	}
	if res.Size != 512<<10 {
		t.Fatalf("size %d", res.Size)
	}
	if res.Elapsed() <= 0 || res.GoodputBps() <= 0 {
		t.Fatalf("bogus result %+v", res)
	}
	if res.HandshakeDone <= 0 || res.HandshakeDone >= res.Finish {
		t.Fatalf("handshake time %v out of order", res.HandshakeDone)
	}
}

func TestGetResultMetrics(t *testing.T) {
	r := GetResult{Size: 1 << 20, Start: time.Second, Finish: 2 * time.Second}
	if r.Elapsed() != time.Second {
		t.Fatal("elapsed")
	}
	want := float64(1<<20) * 8
	if r.GoodputBps() != want {
		t.Fatalf("goodput %v want %v", r.GoodputBps(), want)
	}
	zero := GetResult{}
	if zero.GoodputBps() != 0 {
		t.Fatal("zero-duration goodput should be 0")
	}
}

func TestGetServerIgnoresMalformedRequest(t *testing.T) {
	clock, lis, client := newPair(t)
	NewGetServer(lis)
	responded := false
	client.OnHandshakeComplete(func() {
		s := client.OpenStream()
		s.OnData(func() { responded = true })
		s.Write([]byte("NONSENSE"))
		s.Close()
	})
	clock.RunUntil(sim.Time(5 * time.Second))
	if responded {
		t.Fatal("server answered a malformed request")
	}
}

func TestEchoServerReqResp(t *testing.T) {
	clock, lis, client := newPair(t)
	NewEchoServer(lis)
	rr := NewReqRespClient(client, clock, 3*time.Second)
	clock.RunUntil(sim.Time(5 * time.Second))
	samples := rr.Samples()
	// ~8 requests in 3 s at 400 ms cadence.
	if len(samples) < 6 {
		t.Fatalf("only %d samples", len(samples))
	}
	for i, s := range samples {
		if s.Delay <= 0 || s.Delay > 200*time.Millisecond {
			t.Fatalf("sample %d: delay %v", i, s.Delay)
		}
		if i > 0 && s.SentAt <= samples[i-1].SentAt {
			t.Fatal("samples out of order")
		}
	}
	// Cadence is ReqRespInterval.
	if gap := samples[1].SentAt - samples[0].SentAt; gap != ReqRespInterval {
		t.Fatalf("cadence %v", gap)
	}
}

func TestReqRespClientEndsAfterTotal(t *testing.T) {
	clock, lis, client := newPair(t)
	NewEchoServer(lis)
	rr := NewReqRespClient(client, clock, 1200*time.Millisecond)
	clock.RunUntil(sim.Time(5 * time.Second))
	if n := len(rr.Samples()); n > 4 {
		t.Fatalf("%d samples from a 1.2 s train", n)
	}
}
