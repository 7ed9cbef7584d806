package core_test

import (
	"fmt"
	"testing"
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/core"
	"mpquic/internal/netem"
	"mpquic/internal/recovery"
	"mpquic/internal/sim"
)

// recordNet is one GET server on two addresses and any number of
// two-path clients, each on links of its own, so their connections can
// overlap. Every connection the server accepts draws its sent-packet
// records from the listener's one free list.
type recordNet struct {
	t        *testing.T
	clock    *sim.Clock
	nw       *netem.Network
	link     netem.LinkConfig
	servers  []netem.Addr
	lis      *core.Listener
	accepted []*core.Conn
	clients  int
	links    []*netem.Link // both directions of every client's paths
}

func newRecordNet(t *testing.T, cfg core.Config, lossRate float64) *recordNet {
	clock := sim.NewClock()
	clock.Limit = 50_000_000
	r := &recordNet{
		t:       t,
		clock:   clock,
		nw:      netem.New(clock, sim.NewRand(7)),
		link:    netem.LinkConfig{RateMbps: 20, Delay: 10 * time.Millisecond, QueueDelay: 50 * time.Millisecond, LossRate: lossRate},
		servers: []netem.Addr{"s0", "s1"},
	}
	r.lis = core.Listen(r.nw, cfg, r.servers)
	apps.NewGetServer(r.lis)
	r.lis.OnConnection(func(c *core.Conn) { r.accepted = append(r.accepted, c) })
	return r
}

// get dials a new client on two fresh interfaces and asks it for size
// bytes; done runs when they have all arrived.
func (r *recordNet) get(cfg core.Config, size uint64, done func(*core.Conn)) *core.Conn {
	r.clients++
	var locals []netem.Addr
	for i, s := range r.servers {
		a := netem.Addr(fmt.Sprintf("c%d-%d", r.clients, i))
		fwd, rev := r.nw.Connect(a, s, r.link)
		r.links = append(r.links, fwd, rev)
		locals = append(locals, a)
	}
	c := core.Dial(r.nw, cfg, core.NewConnID(uint64(r.clients)), locals, r.servers)
	apps.NewGetClient(c, size, r.now, func(apps.GetResult) {
		if done != nil {
			done(c)
		}
	})
	return c
}

func (r *recordNet) now() time.Duration { return r.clock.Now().Duration() }

func (r *recordNet) run(d time.Duration) {
	r.t.Helper()
	if err := r.clock.RunUntil(r.clock.Now().Add(d)); err != nil {
		r.t.Fatal(err)
	}
}

// held returns the records every path space of c holds.
func held(c *core.Conn) []*recovery.SentPacket {
	var out []*recovery.SentPacket
	for _, p := range c.Paths() {
		out = append(out, p.Held()...)
	}
	return out
}

// checkOwners fails unless every record has one owner: no record waits
// in the listener's free list twice, sits in two logs, or sits in a log
// and the free list; a closed connection holds none, and no forgotten
// connection is left holding its records between clock steps. It
// returns how many records the accepted connections hold.
func (r *recordNet) checkOwners(step int) int {
	r.t.Helper()
	if n := r.lis.Forgotten(); n != 0 {
		r.t.Fatalf("step %d: %d forgotten connections still hold their records", step, n)
	}
	owner := make(map[*recovery.SentPacket]string)
	for _, sp := range r.lis.FreeSent() {
		if owner[sp] != "" {
			r.t.Fatalf("step %d: record %p waits in the free list twice", step, sp)
		}
		owner[sp] = "the free list"
	}
	total := 0
	for i, c := range r.accepted {
		recs := held(c)
		if c.Closed() && len(recs) > 0 {
			r.t.Fatalf("step %d: closed connection %d still holds %d records", step, i, len(recs))
		}
		name := fmt.Sprintf("connection %d", i)
		for _, sp := range recs {
			if o := owner[sp]; o != "" {
				r.t.Fatalf("step %d: record %p is in the log of %s and in %s", step, sp, name, o)
			}
			owner[sp] = name
		}
		total += len(recs)
	}
	return total
}

// TestSharedRecordsHaveOneOwner runs five overlapping two-path GETs
// over lossy links through one listener, each client closing its
// connection when its GET is done, and checks after every clock step
// that each sent-packet record has one owner. The later connections
// must run on records the earlier ones handed back.
func TestSharedRecordsHaveOneOwner(t *testing.T) {
	cfg := core.DefaultConfig()
	r := newRecordNet(t, cfg, 0.02)
	finished := 0
	for i := 0; i < 5; i++ {
		i := i
		r.clock.At(sim.Time(time.Duration(i)*150*time.Millisecond), func() {
			r.get(cfg, uint64(128+64*i)<<10, func(c *core.Conn) {
				finished++
				c.Close()
			})
		})
	}
	firstOwner := make(map[*recovery.SentPacket]*core.Conn)
	reused := 0
	for step := 0; finished < 5; step++ {
		next := r.clock.NextDeadline()
		if next == sim.Never || next > sim.Time(60*time.Second) {
			t.Fatalf("only %d of 5 GETs finished", finished)
		}
		if err := r.clock.RunUntil(next); err != nil {
			t.Fatal(err)
		}
		r.checkOwners(step)
		for _, c := range r.accepted {
			for _, sp := range held(c) {
				if first, ok := firstOwner[sp]; !ok {
					firstOwner[sp] = c
				} else if first != c {
					firstOwner[sp] = c
					reused++
				}
			}
		}
	}
	r.run(time.Second) // the last CONNECTION_CLOSE arrives
	r.checkOwners(-1)
	if len(r.accepted) != 5 || len(r.lis.Conns()) != 0 {
		t.Fatalf("accepted %d connections, %d still open; want 5 and 0", len(r.accepted), len(r.lis.Conns()))
	}
	if reused == 0 {
		t.Fatal("no connection ran on a record an earlier one handed back")
	}
	t.Logf("%d records passed from one connection to another", reused)
}

// TestEveryEndHandsRecordsBack ends a server connection each way a
// connection ends, mid-transfer with a window in flight, and requires
// every record its spaces held when its close callback ran to wait in
// the listener's free list afterwards.
// The close callback runs before the listener forgets the connection.
// Where the close happens inside a datagram's handling, the records
// must stay with the connection until the listener's HandleDatagram
// returns: the handler still runs after the close.
func TestEveryEndHandsRecordsBack(t *testing.T) {
	for _, end := range []string{"peer close", "local close", "close in a stream callback", "idle timeout"} {
		t.Run(end, func(t *testing.T) {
			cfg := core.DefaultConfig()
			srvCfg := cfg
			if end == "idle timeout" {
				srvCfg.IdleTimeout = 2 * time.Second
			}
			r := newRecordNet(t, srvCfg, 0)
			var snapshot []*recovery.SentPacket
			freeBefore := 0
			r.lis.OnConnection(func(c *core.Conn) {
				c.OnClosed(func(error) {
					snapshot = held(c)
					freeBefore = len(r.lis.FreeSent())
				})
				if end != "close in a stream callback" {
					return
				}
				c.OnStreamOpen(func(s *core.Stream) {
					// Answer, then close at once: the request's handling
					// goes on after Close returns.
					s.WriteSynthetic(256 << 10)
					s.Close()
					c.Close()
					if r.lis.Forgotten() != 1 || len(held(c)) != len(snapshot) || len(snapshot) == 0 {
						t.Fatalf("inside the datagram that closed it the connection holds %d records (%d at close), %d forgotten",
							len(held(c)), len(snapshot), r.lis.Forgotten())
					}
				})
			})
			client := r.get(cfg, 4<<20, nil)
			r.run(300 * time.Millisecond)
			if len(r.accepted) != 1 {
				t.Fatalf("accepted %d connections, want 1", len(r.accepted))
			}
			server := r.accepted[0]
			switch end {
			case "peer close":
				client.Close()
			case "local close":
				server.Close()
			case "idle timeout":
				for _, l := range r.links {
					l.SetDown(true) // the client goes silent
				}
			}
			r.run(5 * time.Second)
			if !server.Closed() {
				t.Fatal("the server connection did not close")
			}
			if len(snapshot) == 0 {
				t.Fatal("the connection held no records when it closed: the test would pass without them")
			}
			free := r.lis.FreeSent()
			if len(free) != freeBefore+len(snapshot) {
				t.Fatalf("the free list holds %d records, want %d waiting before the close plus the %d the connection held",
					len(free), freeBefore, len(snapshot))
			}
			back := make(map[*recovery.SentPacket]bool, len(free))
			for _, sp := range free {
				back[sp] = true
			}
			for _, sp := range snapshot {
				if !back[sp] {
					t.Fatalf("record %p the connection held did not come back", sp)
				}
			}
			r.checkOwners(-1)
			t.Logf("%d records came back", len(snapshot))
		})
	}
}

// TestSentFreeListIsBounded: across 20 sequential GETs the listener's
// free list settles at what one connection needs, and after a burst of
// concurrent GETs that together need more than the bound it keeps no
// more than the bound — the records ConnWindow bytes of full-size
// packets take.
func TestSentFreeListIsBounded(t *testing.T) {
	cfg := core.DefaultConfig()
	r := newRecordNet(t, cfg, 0)
	var lens []int
	for i := 0; i < 20; i++ {
		done := false
		r.get(cfg, 1<<20, func(c *core.Conn) { done = true; c.Close() })
		r.run(5 * time.Second)
		if !done || len(r.lis.Conns()) != 0 {
			t.Fatalf("GET %d: done %v, %d connections open", i, done, len(r.lis.Conns()))
		}
		lens = append(lens, len(r.lis.FreeSent()))
	}
	for i, n := range lens[1:] {
		if n != lens[0] {
			t.Fatalf("free list after each GET: %v; GET %d changed it", lens, i+1)
		}
	}
	if lens[0] == 0 || lens[0] > r.lis.SentKeep() {
		t.Fatalf("free list holds %d records after a GET, want some and at most %d", lens[0], r.lis.SentKeep())
	}

	// A small connection window makes a small bound.
	cfg.StreamWindow, cfg.ConnWindow = 128<<10, 128<<10
	r = newRecordNet(t, cfg, 0)
	keep := r.lis.SentKeep()
	if want := (128<<10 + 1349) / 1350; keep != want {
		t.Fatalf("SentKeep = %d, want %d", keep, want)
	}
	finished, peak := 0, 0
	for i := 0; i < 12; i++ {
		r.get(cfg, 1<<20, func(c *core.Conn) { finished++; c.Close() })
	}
	for step := 0; finished < 12; step++ {
		next := r.clock.NextDeadline()
		if next == sim.Never || next > sim.Time(60*time.Second) {
			t.Fatalf("only %d of 12 GETs finished", finished)
		}
		if err := r.clock.RunUntil(next); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, r.checkOwners(step))
	}
	r.run(time.Second)
	if n := len(r.lis.Conns()); n != 0 {
		t.Fatalf("%d connections still open", n)
	}
	if peak <= keep {
		t.Fatalf("the burst held at most %d records at once, not more than the bound %d: it tests nothing", peak, keep)
	}
	if n := len(r.lis.FreeSent()); n > keep {
		t.Fatalf("after the burst the free list keeps %d records, bound %d", n, keep)
	}
}
