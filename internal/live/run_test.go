package live

import (
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"mpquic/internal/core"
	"mpquic/internal/netem"
)

// stepLog records, for every datagram the loop delivers, the clock step
// it came in, its More mark and the sequence number in its first bytes.
type stepLog struct {
	d    *Driver
	seen []struct {
		step uint64
		more bool
		seq  uint16
	}
}

func (l *stepLog) HandleDatagram(dg netem.Datagram) {
	l.seen = append(l.seen, struct {
		step uint64
		more bool
		seq  uint16
	}{l.d.Stats.IngressBatches, dg.More, binary.BigEndian.Uint16(dg.Raw)})
}

// Five queued runs of 60 datagrams make one step of 300: a step takes
// each read whole while fewer than ingressBatchCap datagrams came
// before it, so it passes the cap by less than one read instead of
// cutting a run. Every datagram arrives once, in order, with More on
// all but the last, and every run buffer goes back to its socket.
func TestBatchedStepTakesWholeReads(t *testing.T) {
	d := socketlessDriver(1)
	s := d.socks[0]
	h := &stepLog{d: d}
	s.handler = h
	from := netip.MustParseAddrPort("127.0.0.1:5000")
	const runs, perRun, seg = 5, 60, 10
	for r := 0; r < runs; r++ {
		run := make([]byte, perRun*seg)
		for i := 0; i < perRun; i++ {
			binary.BigEndian.PutUint16(run[i*seg:], uint16(r*perRun+i))
		}
		handOver(t, d, s, from, run, seg)
	}
	if got := d.PendingIngress(); got != runs*perRun {
		t.Fatalf("PendingIngress = %d, want %d datagrams", got, runs*perRun)
	}
	if err := step(d); err != nil {
		t.Fatal(err)
	}
	if len(h.seen) != runs*perRun || d.Stats.PacketsIn != runs*perRun || d.Stats.BytesIn != runs*perRun*seg || d.PendingIngress() != 0 {
		t.Fatalf("%d datagrams delivered, %d left, Stats = %+v; want %d of %d bytes, none left", len(h.seen), d.PendingIngress(), d.Stats, runs*perRun, seg)
	}
	if d.Stats.IngressBatches != 1 || d.Stats.MaxBatch != runs*perRun {
		t.Fatalf("%d steps, the largest of %d datagrams; want 1 of %d", d.Stats.IngressBatches, d.Stats.MaxBatch, runs*perRun)
	}
	for i, dg := range h.seen {
		last := i == len(h.seen)-1
		if dg.seq != uint16(i) || dg.step != 1 || dg.more == last {
			t.Fatalf("datagram %d: sequence %d, step %d, More=%v; want %d, 1, %v", i, dg.seq, dg.step, dg.more, i, !last)
		}
	}
	if len(s.free) != runBufsPerSocket {
		t.Fatalf("%d of %d run buffers back", len(s.free), runBufsPerSocket)
	}
}

// Reads queued A, A, B, A — two datagrams each, on two sockets with
// their own handlers — make one step. A datagram carries More only when
// the step's next datagram goes to its handler: so both handlers' last
// datagrams of the step carry More=false, and so does A's second read,
// which B's read follows.
func TestBatchedMoreFollowsTheNextDatagram(t *testing.T) {
	d := socketlessDriver(2)
	a, b := d.socks[0], d.socks[1]
	logs := map[*pathSocket]*stepLog{a: {d: d}, b: {d: d}}
	d.Register(a.local, logs[a])
	d.Register(b.local, logs[b])
	from := netip.MustParseAddrPort("127.0.0.1:5000")
	const seg = 10
	for i, s := range []*pathSocket{a, a, b, a} {
		run := make([]byte, 2*seg)
		binary.BigEndian.PutUint16(run, uint16(2*i))
		binary.BigEndian.PutUint16(run[seg:], uint16(2*i+1))
		handOver(t, d, s, from, run, seg)
	}
	if err := step(d); err != nil {
		t.Fatal(err)
	}
	if d.Stats.IngressBatches != 1 || d.Stats.PacketsIn != 8 || d.PendingIngress() != 0 {
		t.Fatalf("%d steps injected %d datagrams, %d left; want one step of all 8", d.Stats.IngressBatches, d.Stats.PacketsIn, d.PendingIngress())
	}
	for _, c := range []struct {
		s    *pathSocket
		seqs []uint16
		more []bool
	}{
		{a, []uint16{0, 1, 2, 3, 6, 7}, []bool{true, true, true, false, true, false}},
		{b, []uint16{4, 5}, []bool{true, false}},
	} {
		seen := logs[c.s].seen
		if len(seen) != len(c.seqs) {
			t.Fatalf("%s: %d datagrams, want %d", c.s.local, len(seen), len(c.seqs))
		}
		for i, dg := range seen {
			if dg.seq != c.seqs[i] || dg.more != c.more[i] {
				t.Errorf("%s: datagram %d is %d with More=%v, want %d with More=%v", c.s.local, i, dg.seq, dg.more, c.seqs[i], c.more[i])
			}
		}
		if len(c.s.free) != runBufsPerSocket {
			t.Errorf("%s: %d of %d run buffers back", c.s.local, len(c.s.free), runBufsPerSocket)
		}
	}
}

// A driver draws its sockets' run buffers from the process's free list
// and gives every one back: its batch buffer when a Flush is done with
// it, and at Close the ones its readers hold and the ones whose reads
// still wait in its queue. So a fresh driver per transfer allocates
// none.
func TestBatchedDriverHandsRunBuffersBack(t *testing.T) {
	const n = 20
	// exchange sends n datagrams from d's first socket to its second,
	// where they wait unread.
	exchange := func(d *Driver) {
		addrs := d.LocalAddrs()
		for i := 0; i < n; i++ {
			d.Send(core.RawDatagram(addrs[0], addrs[1], make([]byte, 100)))
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for d.PendingIngress() < n {
			if time.Now().After(deadline) {
				t.Fatalf("PendingIngress = %d, want %d", d.PendingIngress(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	locals := []string{"127.0.0.1:0", "127.0.0.1:0"}
	warm, err := NewDriver(locals)
	if err != nil {
		t.Skipf("UDP sockets unavailable: %v", err)
	}
	exchange(warm)
	warm.Close()
	free := len(runBufFree)
	d, err := NewDriver(locals)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got, want := len(runBufFree), free-2*runBufsPerSocket; got != want {
		t.Fatalf("free list holds %d run buffers after NewDriver, want %d", got, want)
	}
	exchange(d)
	d.Close()
	if got := len(runBufFree); got != free {
		t.Fatalf("free list holds %d run buffers after Close, want %d", got, free)
	}
}
