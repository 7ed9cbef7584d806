package tcpsim_test

import (
	"testing"
	"time"

	"mpquic/internal/mptcpsim"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
	"mpquic/internal/tcpsim"
)

// The tests in this file hold the TCP and MPTCP connections to the same
// application-facing behaviour, one subtest per stack.

// familyConn is what these tests need of a TCP or MPTCP client.
type familyConn interface {
	tcpsim.GetConn
	BytesReceived() uint64
	Flows() []*tcpsim.Flow
}

var pathSpec = netem.PathSpec{CapacityMbps: 10, RTT: 20 * time.Millisecond, QueueDelay: 100 * time.Millisecond}

// family lists both stacks: dial starts a server with a recvWindow-byte
// receive window that answers every request with size bytes, and dials
// it; flows is how many flows the client opens.
var family = []struct {
	name  string
	flows int
	dial  func(clock *sim.Clock, recvWindow, size uint64) familyConn
}{
	{"tcp", 1, func(clock *sim.Clock, recvWindow, size uint64) familyConn {
		cfg := tcpsim.DefaultConfig()
		cfg.RecvWindow = recvWindow
		nw := netem.New(clock, sim.NewRand(3))
		nw.Connect("c:1", "s:443", netem.LinkConfig{RateMbps: pathSpec.CapacityMbps, Delay: pathSpec.RTT / 2, QueueDelay: pathSpec.QueueDelay})
		tcpsim.ServeGet(tcpsim.ListenTCP(nw, cfg, "s:443"), size)
		return tcpsim.DialTCP(nw, cfg, "c:1", "s:443")
	}},
	{"mptcp", 2, func(clock *sim.Clock, recvWindow, size uint64) familyConn {
		cfg := mptcpsim.DefaultConfig()
		cfg.RecvWindow = recvWindow
		tp := netem.NewTwoPath(clock, sim.NewRand(3), [2]netem.PathSpec{pathSpec, pathSpec})
		tcpsim.ServeGet(mptcpsim.ListenMPTCP(tp.Net, cfg, tp.ServerAddrs[:]), size)
		return mptcpsim.DialMPTCP(tp.Net, cfg, 0x42, tp.ClientAddrs[:], tp.ServerAddrs[:])
	}},
}

func TestTCPListenerIgnoresStrays(t *testing.T) {
	// A non-SYN segment for an unknown peer (TCP) or token (MPTCP) must
	// not create state.
	stray := func(clock *sim.Clock, nw *netem.Network, from, to netem.Addr, seg *tcpsim.Segment) {
		nw.Send(netem.Datagram{From: from, To: to, Size: 100, Payload: seg})
		clock.Run()
	}
	t.Run("tcp", func(t *testing.T) {
		clock := sim.NewClock()
		nw := netem.New(clock, sim.NewRand(1))
		nw.Connect("c:1", "s:443", netem.LinkConfig{RateMbps: 10, Delay: 10 * time.Millisecond, QueueDelay: 100 * time.Millisecond})
		lis := tcpsim.ListenTCP(nw, tcpsim.DefaultConfig(), "s:443")
		stray(clock, nw, "c:1", "s:443", &tcpsim.Segment{ACK: true, AckNum: 5})
		if len(lis.Conns()) != 0 {
			t.Fatal("stray segment created a connection")
		}
	})
	t.Run("mptcp", func(t *testing.T) {
		clock := sim.NewClock()
		tp := netem.NewTwoPath(clock, sim.NewRand(1), [2]netem.PathSpec{pathSpec, pathSpec})
		lis := mptcpsim.ListenMPTCP(tp.Net, mptcpsim.DefaultConfig(), tp.ServerAddrs[:])
		stray(clock, tp.Net, tp.ClientAddrs[0], tp.ServerAddrs[0], &tcpsim.Segment{ACK: true, AckNum: 5, MP: true, Token: 0x77})
		if len(lis.Conns()) != 0 {
			t.Fatal("stray segment created a connection")
		}
	})
}

func TestTCPZeroWindowStallsAndRecovers(t *testing.T) {
	for _, st := range family {
		t.Run(st.name, func(t *testing.T) {
			clock := sim.NewClock()
			client := st.dial(clock, 32<<10, 256<<10)
			client.OnEstablished(func() {
				client.WriteSynthetic(100)
				client.CloseWrite()
			})
			// The client never reads: the receive window fills at 32 KB.
			clock.RunUntil(sim.Time(10 * time.Second))
			if got := client.BytesReceived(); got > 32<<10 {
				t.Fatalf("receiver window exceeded: %d", got)
			}
			// Reading reopens the window, which goes out at once in one
			// ack on every established flow.
			flows := client.Flows()
			if len(flows) != st.flows {
				t.Fatalf("%d flows, want %d", len(flows), st.flows)
			}
			sent := make([]uint64, len(flows))
			for i, f := range flows {
				if !f.Established() {
					t.Fatalf("flow %d not established", f.ID)
				}
				sent[i] = f.Stats.SegmentsSent
			}
			client.OnData(func() { client.Read(client.Readable()) })
			client.Read(client.Readable())
			for i, f := range flows {
				if n := f.Stats.SegmentsSent - sent[i]; n != 1 {
					t.Fatalf("flow %d sent %d segments on the reopen, want 1", f.ID, n)
				}
			}
			// The transfer then completes.
			clock.RunUntil(sim.Time(120 * time.Second))
			if client.BytesReceived() != 256<<10 {
				t.Fatalf("transfer stuck after window opened: %d", client.BytesReceived())
			}
		})
	}
}
