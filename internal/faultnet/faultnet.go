// Package faultnet injects deterministic faults into real UDP
// sockets — the live-mode counterpart of the emulator's loss models
// and netem/dynamics scripts. The simulator can script a path death
// with one line; the live driver talks to the kernel, which never
// misbehaves on demand. This package puts a wrapper between the
// driver and each socket that misbehaves exactly on demand:
//
//   - probabilistic faults (Rates): drop, duplicate, corrupt
//     (single-bit flip), transient read errors (ENOBUFS-shaped) and
//     transient write errors (ENOBUFS/EHOSTUNREACH-shaped);
//   - scripted faults (Script, mirroring netem/dynamics.Script): kill
//     (permanent socket death — the underlying socket is closed),
//     restore (a socket wrapped after this point is healthy again,
//     which is what lets the live driver's rebind ladder recover),
//     and blackhole windows (all traffic silently vanishes, the
//     socket itself stays "up").
//
// # Determinism contract
//
// Fault decisions are drawn from sim.Rand streams forked per (seed,
// path, socket generation, direction): the k-th read decision and the
// k-th write decision on a given socket incarnation are pure
// functions of the seed, regardless of goroutine interleaving between
// the reader and writer. Scripted events fire by the injector's clock
// (WithClock — wall time is deliberately not read here; the caller
// owns the timebase, keeping this package clean under the walltime
// analyzer). Same seed + same script + same I/O sequence ⇒ same fault
// sequence, which is what makes chaos runs CI-safe.
//
// The wrapper implements the same structural interface as
// *net.UDPConn's address-port methods, so it satisfies live.UDPConn
// without importing the live package (and vice versa).
package faultnet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sync"
	"syscall"
	"time"

	"mpquic/internal/sim"
)

// Conn is the socket surface faultnet wraps: the subset of
// *net.UDPConn the live driver uses (structurally identical to
// live.UDPConn).
type Conn interface {
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
	WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error)
	Close() error
}

// Clock reports elapsed time on the caller's timebase; scripted
// events fire when the clock passes their At offset. The zero
// injector has no clock and refuses non-empty scripts (see New).
type Clock func() time.Duration

// Rates are the probabilistic per-operation fault probabilities, each
// in [0,1]. Zero values inject nothing.
type Rates struct {
	Drop     float64 // received/sent datagram silently discarded
	Dup      float64 // received datagram delivered twice
	Corrupt  float64 // one random bit flipped in the datagram
	ReadErr  float64 // read returns a transient ENOBUFS-shaped error
	WriteErr float64 // write returns a transient ENOBUFS/EHOSTUNREACH-shaped error
}

// ErrSocketDead marks errors returned by a killed socket. It wraps
// net.ErrClosed so callers classifying by errors.Is treat a scripted
// kill exactly like a socket that died under them.
var ErrSocketDead = errors.New("faultnet: socket killed")

// Pre-built fault errors: the error path should not allocate per
// operation, and tests compare against stable values.
var (
	errDeadRead  = &net.OpError{Op: "read", Net: "udp", Err: fmt.Errorf("%w: %w", ErrSocketDead, net.ErrClosed)}
	errDeadWrite = &net.OpError{Op: "write", Net: "udp", Err: fmt.Errorf("%w: %w", ErrSocketDead, net.ErrClosed)}
	errReadBufs  = &net.OpError{Op: "read", Net: "udp", Err: os.NewSyscallError("recvfrom", syscall.ENOBUFS)}
	errWriteBufs = &net.OpError{Op: "write", Net: "udp", Err: os.NewSyscallError("sendto", syscall.ENOBUFS)}
	errWriteHost = &net.OpError{Op: "write", Net: "udp", Err: os.NewSyscallError("sendto", syscall.EHOSTUNREACH)}
)

// Option tunes an Injector at construction.
type Option func(*Injector)

// WithClock sets the timebase scripted events fire on (required when
// the script is non-empty).
func WithClock(c Clock) Option { return func(in *Injector) { in.clock = c } }

// WithRates sets the probabilistic fault rates.
func WithRates(r Rates) Option { return func(in *Injector) { in.rates = r } }

// WithScript sets the scripted fault timeline.
func WithScript(s Script) Option { return func(in *Injector) { in.script = s } }

// Injector builds fault-injecting socket wrappers. One injector spans
// all of a driver's sockets: Wrap(path, conn) derives the per-socket
// fault streams and hands back the wrapped conn. Wrap is safe from
// any goroutine (rebinds re-wrap from the reader goroutines).
type Injector struct {
	seed   uint64
	clock  Clock
	rates  Rates
	script Script

	mu   sync.Mutex
	gens map[int]int // sockets wrapped so far, per path
}

// New builds an injector. It panics when a non-empty script is given
// without a clock — silently never firing the script would make every
// chaos run vacuously green.
func New(seed uint64, opts ...Option) *Injector {
	in := &Injector{seed: seed, gens: make(map[int]int)}
	for _, o := range opts {
		o(in)
	}
	if len(in.script.Events) > 0 && in.clock == nil {
		panic("faultnet: a scripted injector needs WithClock")
	}
	return in
}

// Wrap returns c with this injector's faults applied. path selects
// the scripted events that apply; each call advances the path's
// socket generation, so a rebound socket gets fresh (but still
// seed-determined) fault streams. Scripted events already in the past
// are folded in immediately: wrapping during a kill window yields a
// dead-at-birth socket (its underlying conn is closed on the spot),
// which is how a rebind attempt during an outage fails until the
// script restores the path.
func (in *Injector) Wrap(path int, c Conn) Conn {
	in.mu.Lock()
	gen := in.gens[path]
	in.gens[path]++
	in.mu.Unlock()
	fc := &faultConn{
		inner:  c,
		clock:  in.clock,
		rates:  in.rates,
		rrand:  sim.NewRand(mixSeed(in.seed, path, gen, 0)),
		wrand:  sim.NewRand(mixSeed(in.seed, path, gen, 1)),
		events: in.script.eventsFor(path),
	}
	fc.mu.Lock()
	fc.advanceTo(fc.now())
	fc.mu.Unlock()
	return fc
}

// mixSeed derives the stream seed for one (path, generation,
// direction) tuple; sim.Rand's splitmix seeder decorrelates the
// nearby values this produces.
func mixSeed(seed uint64, path, gen, dir int) uint64 {
	return seed ^
		uint64(path+1)*0x9e3779b97f4a7c15 ^
		uint64(gen+1)*0xbf58476d1ce4e5b9 ^
		uint64(dir+1)*0x94d049bb133111eb
}

// faultConn is one wrapped socket. The mutex guards the script cursor
// and fault state; the driver contract (one reader goroutine, one
// writer goroutine) keeps each rand stream single-threaded, but the
// wrapper stays safe under any use.
type faultConn struct {
	inner Conn
	clock Clock
	rates Rates

	mu         sync.Mutex
	rrand      *sim.Rand // read-side decisions
	wrand      *sim.Rand // write-side decisions
	events     []Event   // pending scripted events, sorted by At
	dead       bool
	blackholes int // active blackhole windows
	pendDup    []byte
	pendFrom   netip.AddrPort
}

func (c *faultConn) now() time.Duration {
	if c.clock == nil {
		return 0
	}
	return c.clock()
}

// advanceTo folds every scripted event due by now into the fault
// state. Caller holds c.mu. A fold ending in the dead state closes
// the underlying socket so a reader blocked in it wakes up; a restore
// after an *observed* kill only flips the flag — the closed socket
// stays closed, and recovery happens when the driver rebinds and
// wraps a fresh one. A kill+restore pair folded in a single step (no
// operation observed the outage — e.g. a socket wrapped after both)
// nets out to alive without closing anything.
func (c *faultConn) advanceTo(now time.Duration) {
	killed := false
	for len(c.events) > 0 && c.events[0].At <= now {
		ev := c.events[0]
		c.events = c.events[1:]
		switch ev.Op {
		case OpKill:
			if !c.dead {
				c.dead = true
				killed = true
			}
		case OpRestore:
			c.dead = false
		case OpBlackholeOn:
			c.blackholes++
		case OpBlackholeOff:
			if c.blackholes > 0 {
				c.blackholes--
			}
		}
	}
	if killed && c.dead {
		c.inner.Close()
	}
}

// ReadFromUDPAddrPort implements Conn. Dropped and blackholed
// datagrams are consumed from the underlying socket and swallowed;
// the call then blocks for the next one, like a socket on a lossy
// link would.
func (c *faultConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	for {
		c.mu.Lock()
		c.advanceTo(c.now())
		if c.dead {
			c.mu.Unlock()
			return 0, netip.AddrPort{}, errDeadRead
		}
		if c.pendDup != nil {
			n := copy(b, c.pendDup)
			from := c.pendFrom
			c.pendDup = nil
			c.mu.Unlock()
			return n, from, nil
		}
		if c.rates.ReadErr > 0 && c.rrand.Bernoulli(c.rates.ReadErr) {
			c.mu.Unlock()
			return 0, netip.AddrPort{}, errReadBufs
		}
		c.mu.Unlock()

		n, from, err := c.inner.ReadFromUDPAddrPort(b)

		c.mu.Lock()
		c.advanceTo(c.now())
		if c.dead {
			c.mu.Unlock()
			return 0, netip.AddrPort{}, errDeadRead
		}
		if err != nil {
			c.mu.Unlock()
			return n, from, err
		}
		if c.blackholes > 0 || (c.rates.Drop > 0 && c.rrand.Bernoulli(c.rates.Drop)) {
			c.mu.Unlock()
			continue // swallowed; wait for the next datagram
		}
		if c.rates.Corrupt > 0 && n > 0 && c.rrand.Bernoulli(c.rates.Corrupt) {
			bit := c.rrand.Intn(n * 8)
			b[bit/8] ^= 1 << (bit % 8)
		}
		if c.rates.Dup > 0 && n > 0 && c.rrand.Bernoulli(c.rates.Dup) {
			c.pendDup = append(c.pendDup[:0], b[:n]...)
			c.pendFrom = from
		}
		c.mu.Unlock()
		return n, from, nil
	}
}

// WriteToUDPAddrPort implements Conn. Dropped and blackholed writes
// report success (the bytes vanish in flight, as seen by a sender on
// a lossy link); corruption flips one bit for the syscall and
// restores the caller's buffer afterwards.
func (c *faultConn) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	c.mu.Lock()
	c.advanceTo(c.now())
	if c.dead {
		c.mu.Unlock()
		return 0, errDeadWrite
	}
	if c.blackholes > 0 {
		c.mu.Unlock()
		return len(b), nil
	}
	if c.rates.WriteErr > 0 && c.wrand.Bernoulli(c.rates.WriteErr) {
		err := errWriteBufs
		if c.wrand.Uint64()&1 == 1 {
			err = errWriteHost
		}
		c.mu.Unlock()
		return 0, err
	}
	if c.rates.Drop > 0 && c.wrand.Bernoulli(c.rates.Drop) {
		c.mu.Unlock()
		return len(b), nil
	}
	corruptBit := -1
	if c.rates.Corrupt > 0 && len(b) > 0 && c.wrand.Bernoulli(c.rates.Corrupt) {
		corruptBit = c.wrand.Intn(len(b) * 8)
	}
	dup := c.rates.Dup > 0 && len(b) > 0 && c.wrand.Bernoulli(c.rates.Dup)
	c.mu.Unlock()

	if corruptBit >= 0 {
		b[corruptBit/8] ^= 1 << (corruptBit % 8)
		n, err := c.inner.WriteToUDPAddrPort(b, addr)
		b[corruptBit/8] ^= 1 << (corruptBit % 8)
		return n, err
	}
	if dup {
		if n, err := c.inner.WriteToUDPAddrPort(b, addr); err != nil {
			return n, err
		}
	}
	return c.inner.WriteToUDPAddrPort(b, addr)
}

// Close implements Conn (driver shutdown, not a scripted kill).
func (c *faultConn) Close() error { return c.inner.Close() }
