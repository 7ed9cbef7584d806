package faultnet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// errQueueEmpty is the fake's "no more datagrams" sentinel; the tests
// use it to stop read loops without blocking.
var errQueueEmpty = errors.New("fake queue empty")

// fakeConn is an in-memory Conn: reads pop a queue, writes are
// recorded.
type fakeConn struct {
	mu     sync.Mutex
	rq     [][]byte
	from   netip.AddrPort
	writes [][]byte
	closed bool
}

func newFakeConn(payloads ...[]byte) *fakeConn {
	return &fakeConn{rq: payloads, from: netip.MustParseAddrPort("127.0.0.1:9999")}
}

func (f *fakeConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, netip.AddrPort{}, net.ErrClosed
	}
	if len(f.rq) == 0 {
		return 0, netip.AddrPort{}, errQueueEmpty
	}
	p := f.rq[0]
	f.rq = f.rq[1:]
	return copy(b, p), f.from, nil
}

func (f *fakeConn) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, net.ErrClosed
	}
	f.writes = append(f.writes, append([]byte(nil), b...))
	return len(b), nil
}

func (f *fakeConn) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return nil
}

func (f *fakeConn) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

func (f *fakeConn) writeCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.writes)
}

// faultSignature drains a wrapped conn and encodes every outcome, so
// two runs can be compared byte for byte.
func faultSignature(t *testing.T, c Conn) string {
	t.Helper()
	var sig bytes.Buffer
	b := make([]byte, 64)
	for {
		n, _, err := c.ReadFromUDPAddrPort(b)
		if errors.Is(err, errQueueEmpty) {
			return sig.String()
		}
		if err != nil {
			fmt.Fprintf(&sig, "E(%v);", err)
			continue
		}
		fmt.Fprintf(&sig, "%x;", b[:n])
	}
}

func manyPayloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte{byte(i), byte(i >> 8), 0xaa, 0x55}
	}
	return out
}

func TestSameSeedSameFaults(t *testing.T) {
	rates := Rates{Drop: 0.2, Dup: 0.2, Corrupt: 0.2, ReadErr: 0.1}
	run := func(seed uint64) string {
		in := New(seed, WithRates(rates))
		return faultSignature(t, in.Wrap(0, newFakeConn(manyPayloads(200)...)))
	}
	if a, b := run(42), run(42); a != b {
		t.Fatalf("same seed produced different fault sequences:\n%s\nvs\n%s", a, b)
	}
	if a, b := run(42), run(43); a == b {
		t.Fatalf("different seeds produced identical fault sequences")
	}
}

func TestWrapGenerationsDiverge(t *testing.T) {
	rates := Rates{Drop: 0.3, Corrupt: 0.3}
	in := New(7, WithRates(rates))
	a := faultSignature(t, in.Wrap(0, newFakeConn(manyPayloads(100)...)))
	b := faultSignature(t, in.Wrap(0, newFakeConn(manyPayloads(100)...)))
	if a == b {
		t.Fatalf("successive generations on one path share a fault stream")
	}
}

func TestCorruptFlipsExactlyOneBit(t *testing.T) {
	orig := []byte{0x00, 0xff, 0x12, 0x34, 0x56, 0x78}
	in := New(1, WithRates(Rates{Corrupt: 1}))
	c := in.Wrap(0, newFakeConn(append([]byte(nil), orig...)))
	b := make([]byte, 64)
	n, _, err := c.ReadFromUDPAddrPort(b)
	if err != nil || n != len(orig) {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	diffBits := 0
	for i := range orig {
		x := orig[i] ^ b[i]
		for ; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Fatalf("corrupt flipped %d bits, want exactly 1 (got %x want %x)", diffBits, b[:n], orig)
	}
}

func TestDupDeliversTwice(t *testing.T) {
	payload := []byte{1, 2, 3, 4}
	in := New(1, WithRates(Rates{Dup: 1}))
	fake := newFakeConn(append([]byte(nil), payload...))
	c := in.Wrap(0, fake)
	b := make([]byte, 64)
	for i := 0; i < 2; i++ {
		n, _, err := c.ReadFromUDPAddrPort(b)
		if err != nil || !bytes.Equal(b[:n], payload) {
			t.Fatalf("delivery %d: n=%d err=%v data=%x", i, n, err, b[:n])
		}
	}
	// Both deliveries came from the single queued datagram.
	if _, _, err := c.ReadFromUDPAddrPort(b); !errors.Is(err, errQueueEmpty) {
		t.Fatalf("expected drained queue, got %v", err)
	}
}

func TestReadErrIsTransientShaped(t *testing.T) {
	in := New(1, WithRates(Rates{ReadErr: 1}))
	c := in.Wrap(0, newFakeConn(manyPayloads(1)...))
	_, _, err := c.ReadFromUDPAddrPort(make([]byte, 64))
	if !errors.Is(err, syscall.ENOBUFS) {
		t.Fatalf("read error %v does not wrap ENOBUFS", err)
	}
	if errors.Is(err, net.ErrClosed) {
		t.Fatalf("transient read error %v must not look like a dead socket", err)
	}
}

func TestWriteErrShapes(t *testing.T) {
	in := New(3, WithRates(Rates{WriteErr: 1}))
	fake := newFakeConn()
	c := in.Wrap(0, fake)
	to := netip.MustParseAddrPort("127.0.0.1:1234")
	sawBufs, sawHost := false, false
	for i := 0; i < 64 && !(sawBufs && sawHost); i++ {
		_, err := c.WriteToUDPAddrPort([]byte{1}, to)
		switch {
		case errors.Is(err, syscall.ENOBUFS):
			sawBufs = true
		case errors.Is(err, syscall.EHOSTUNREACH):
			sawHost = true
		default:
			t.Fatalf("unexpected write error %v", err)
		}
	}
	if !sawBufs || !sawHost {
		t.Fatalf("write errors not alternating shapes: ENOBUFS=%v EHOSTUNREACH=%v", sawBufs, sawHost)
	}
	if fake.writeCount() != 0 {
		t.Fatalf("failing writes reached the inner socket")
	}
}

func TestWriteCorruptRestoresCallerBuffer(t *testing.T) {
	orig := []byte{0x10, 0x20, 0x30, 0x40}
	in := New(1, WithRates(Rates{Corrupt: 1}))
	fake := newFakeConn()
	c := in.Wrap(0, fake)
	buf := append([]byte(nil), orig...)
	if _, err := c.WriteToUDPAddrPort(buf, netip.MustParseAddrPort("127.0.0.1:1")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !bytes.Equal(buf, orig) {
		t.Fatalf("caller buffer mutated: %x want %x", buf, orig)
	}
	if fake.writeCount() != 1 || bytes.Equal(fake.writes[0], orig) {
		t.Fatalf("wire payload not corrupted: %x", fake.writes)
	}
}

func TestScriptedKillClosesAndSticks(t *testing.T) {
	var now atomic.Int64
	clock := func() time.Duration { return time.Duration(now.Load()) }
	in := New(1, WithClock(clock), WithScript(Script{Events: []Event{
		{At: 100 * time.Millisecond, Path: 0, Op: OpKill},
		{At: 200 * time.Millisecond, Path: 0, Op: OpRestore},
	}}))
	fake := newFakeConn(manyPayloads(4)...)
	c := in.Wrap(0, fake)

	// Healthy before the kill fires.
	if _, _, err := c.ReadFromUDPAddrPort(make([]byte, 64)); err != nil {
		t.Fatalf("pre-kill read: %v", err)
	}

	now.Store(int64(150 * time.Millisecond))
	_, _, err := c.ReadFromUDPAddrPort(make([]byte, 64))
	if !errors.Is(err, ErrSocketDead) || !errors.Is(err, net.ErrClosed) {
		t.Fatalf("killed read error %v must wrap ErrSocketDead and net.ErrClosed", err)
	}
	if !fake.isClosed() {
		t.Fatalf("kill did not close the underlying socket")
	}
	if _, err := c.WriteToUDPAddrPort([]byte{1}, netip.MustParseAddrPort("127.0.0.1:1")); !errors.Is(err, ErrSocketDead) {
		t.Fatalf("killed write error %v must wrap ErrSocketDead", err)
	}

	// A restore cannot resurrect the killed incarnation (its socket is
	// gone) — but a freshly wrapped socket after the restore is healthy.
	now.Store(int64(250 * time.Millisecond))
	fresh := newFakeConn(manyPayloads(1)...)
	c2 := in.Wrap(0, fresh)
	if _, _, err := c2.ReadFromUDPAddrPort(make([]byte, 64)); err != nil {
		t.Fatalf("post-restore wrap read: %v", err)
	}
}

func TestWrapDuringKillWindowIsDeadAtBirth(t *testing.T) {
	var now atomic.Int64
	now.Store(int64(150 * time.Millisecond))
	clock := func() time.Duration { return time.Duration(now.Load()) }
	in := New(1, WithClock(clock), WithScript(KillAt(0, 100*time.Millisecond)))
	fake := newFakeConn(manyPayloads(1)...)
	c := in.Wrap(0, fake)
	if !fake.isClosed() {
		t.Fatalf("dead-at-birth wrap must close the underlying socket immediately")
	}
	if _, _, err := c.ReadFromUDPAddrPort(make([]byte, 64)); !errors.Is(err, ErrSocketDead) {
		t.Fatalf("dead-at-birth read error: %v", err)
	}
}

func TestScriptOnlyHitsItsPath(t *testing.T) {
	var now atomic.Int64
	now.Store(int64(time.Second))
	clock := func() time.Duration { return time.Duration(now.Load()) }
	in := New(1, WithClock(clock), WithScript(KillAt(1, 100*time.Millisecond)))
	c0 := in.Wrap(0, newFakeConn(manyPayloads(1)...))
	if _, _, err := c0.ReadFromUDPAddrPort(make([]byte, 64)); err != nil {
		t.Fatalf("path 0 affected by path 1's kill: %v", err)
	}
}

func TestBlackholeSwallowsTraffic(t *testing.T) {
	var now atomic.Int64
	now.Store(int64(time.Second))
	clock := func() time.Duration { return time.Duration(now.Load()) }
	in := New(1, WithClock(clock), WithScript(Blackhole(0, 500*time.Millisecond, 0)))
	fake := newFakeConn(manyPayloads(3)...)
	c := in.Wrap(0, fake)

	// Writes report success but nothing reaches the wire.
	n, err := c.WriteToUDPAddrPort([]byte{1, 2, 3}, netip.MustParseAddrPort("127.0.0.1:1"))
	if err != nil || n != 3 {
		t.Fatalf("blackholed write: n=%d err=%v", n, err)
	}
	if fake.writeCount() != 0 {
		t.Fatalf("blackholed write reached the inner socket")
	}

	// Reads consume and swallow every queued datagram.
	if _, _, err := c.ReadFromUDPAddrPort(make([]byte, 64)); !errors.Is(err, errQueueEmpty) {
		t.Fatalf("blackholed read returned %v, want drained queue", err)
	}
}

func TestBlackholeWindowCloses(t *testing.T) {
	var now atomic.Int64
	clock := func() time.Duration { return time.Duration(now.Load()) }
	in := New(1, WithClock(clock), WithScript(Blackhole(0, 100*time.Millisecond, 200*time.Millisecond)))
	fake := newFakeConn(manyPayloads(2)...)
	c := in.Wrap(0, fake)

	now.Store(int64(150 * time.Millisecond)) // inside the window
	if _, _, err := c.ReadFromUDPAddrPort(make([]byte, 64)); !errors.Is(err, errQueueEmpty) {
		t.Fatalf("in-window read returned %v", err)
	}
	now.Store(int64(400 * time.Millisecond)) // window closed
	fake.mu.Lock()
	fake.rq = manyPayloads(1)
	fake.mu.Unlock()
	if _, _, err := c.ReadFromUDPAddrPort(make([]byte, 64)); err != nil {
		t.Fatalf("post-window read: %v", err)
	}
}

func TestNewPanicsOnScriptWithoutClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("New accepted a script without a clock")
		}
	}()
	New(1, WithScript(KillAt(0, time.Second)))
}

func TestParse(t *testing.T) {
	seed, rates, script, err := Parse("seed=7;drop=0.01;dup=0.02;corrupt=0.03;readerr=0.04;writeerr=0.05;kill@300ms:0;restore@1.2s:0;blackhole@250ms+500ms:1")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if seed != 7 {
		t.Fatalf("seed=%d want 7", seed)
	}
	want := Rates{Drop: 0.01, Dup: 0.02, Corrupt: 0.03, ReadErr: 0.04, WriteErr: 0.05}
	if rates != want {
		t.Fatalf("rates=%+v want %+v", rates, want)
	}
	wantEvents := []Event{
		{At: 300 * time.Millisecond, Path: 0, Op: OpKill},
		{At: 1200 * time.Millisecond, Path: 0, Op: OpRestore},
		{At: 250 * time.Millisecond, Path: 1, Op: OpBlackholeOn},
		{At: 750 * time.Millisecond, Path: 1, Op: OpBlackholeOff},
	}
	if len(script.Events) != len(wantEvents) {
		t.Fatalf("events=%+v want %+v", script.Events, wantEvents)
	}
	for i, ev := range script.Events {
		if ev != wantEvents[i] {
			t.Fatalf("event %d = %+v want %+v", i, ev, wantEvents[i])
		}
	}

	// Bare-integer seed shorthand.
	if seed, _, _, err := Parse("42"); err != nil || seed != 42 {
		t.Fatalf("bare seed: seed=%d err=%v", seed, err)
	}

	for _, bad := range []string{
		"bogus",
		"drop=1.5",
		"drop=NaN",
		"dup=-0.1",
		"drop=x",
		"frob=0.1",
		"kill@300ms",
		"kill@-1s:0",
		"kill@300ms:-1",
		"explode@300ms:0",
		"blackhole@100ms+0s:1",
		"seed=abc",
	} {
		if _, _, _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted bad input", bad)
		}
	}
}

func TestEventsForSortsAndFilters(t *testing.T) {
	s := Script{Events: []Event{
		{At: 300 * time.Millisecond, Path: 0, Op: OpRestore},
		{At: 100 * time.Millisecond, Path: 0, Op: OpKill},
		{At: 200 * time.Millisecond, Path: 1, Op: OpKill},
	}}
	got := s.eventsFor(0)
	if len(got) != 2 || got[0].Op != OpKill || got[1].Op != OpRestore {
		t.Fatalf("eventsFor(0) = %+v", got)
	}
}
