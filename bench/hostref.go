package main

import (
	"crypto/aes"
	"crypto/cipher"
	"time"
)

// The host reference: a fixed, frozen piece of work shaped like the
// program's (AEAD over full-size packets, a timer heap, a packet-number
// map, buffer copies, cache-missing loads), timed next to the workload
// about once a second. On a shared host the same binary runs 15–40 %
// slower for seconds to tens of minutes at a time (see README, "Noise
// floor"); dividing by how much slower the reference ran takes most of
// that out of the time-based metrics. It uses nothing from the repository, so a change
// to the program cannot move it, and it never allocates, so the
// workload's heap does not reach it through the collector.

const (
	refPackets  = 256
	refPktSize  = 1350
	refHeapLen  = 4096
	refTableLen = 1 << 19 // 4 MiB of uint64: larger than the private caches
)

// refNominalNs is what one warm hostRef.run costs on this repository's
// sandbox when nobody else is loading the host. Only ratios to it are
// used: it fixes the scale of the normalised metrics so that, on a
// quiet host, they read like raw ones.
const refNominalNs = 1.75e6

type hostRef struct {
	aead   cipher.AEAD
	nonce  [12]byte
	plain  []byte
	sealed []byte
	opened []byte
	heap   []uint64
	index  map[uint64]uint32
	table  []uint64
	stream []byte
	sink   uint64
}

func newHostRef() (*hostRef, error) {
	block, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	r := &hostRef{
		aead:   aead,
		plain:  make([]byte, refPktSize),
		sealed: make([]byte, 0, refPktSize+aead.Overhead()),
		opened: make([]byte, 0, refPktSize),
		heap:   make([]uint64, 0, refHeapLen),
		index:  make(map[uint64]uint32, refHeapLen),
		table:  make([]uint64, refTableLen),
		stream: make([]byte, refPackets*refPktSize),
	}
	for i := range r.table {
		r.table[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return r, nil
}

func (r *hostRef) push(v uint64) {
	h := append(r.heap, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	r.heap = h
}

func (r *hostRef) pop() uint64 {
	h := r.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && h[l] < h[m] {
			m = l
		}
		if l+1 < n && h[l+1] < h[m] {
			m = l + 1
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	r.heap = h
	return top
}

// run does the fixed work once and returns how long it took.
func (r *hostRef) run() time.Duration {
	t0 := wall.Elapsed()
	x := r.sink | 1
	for i := 0; i < refPackets; i++ {
		r.nonce[0] = byte(i)
		r.sealed = r.aead.Seal(r.sealed[:0], r.nonce[:], r.plain, nil)
		opened, err := r.aead.Open(r.opened[:0], r.nonce[:], r.sealed, nil)
		if err != nil {
			panic("bench: host reference failed to open its own packet")
		}
		copy(r.stream[i*refPktSize:], opened)
	}
	for i := 0; i < refHeapLen; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		r.push(x >> 16)
		r.index[x>>40] = uint32(i)
	}
	for len(r.heap) > 0 {
		x += r.pop()
	}
	for k := range r.index {
		delete(r.index, k)
	}
	for i := 0; i < 1<<15; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x += r.table[(x>>33)%refTableLen]
	}
	r.sink = x
	return wall.Elapsed() - t0
}

// A burst of refBurst reference runs (about 25 ms) follows every
// refEvery of workload: under 3 % of the run goes to the reference.
const (
	refEvery = time.Second
	refBurst = 12
)

// hostProbe collects a run's reference timings, burst by burst.
type hostProbe struct {
	ref    *hostRef
	bursts [][]float64 // the warm run times of each burst, in ns
	// wall and cpu are what the bursts since resetCost cost: they are
	// kept out of the workload's metrics.
	wall, cpu time.Duration
	last      time.Duration // when the latest burst ended
}

func newHostProbe() (*hostProbe, error) {
	ref, err := newHostRef()
	if err != nil {
		return nil, err
	}
	return &hostProbe{ref: ref}, nil
}

// burst times refBurst reference runs. It is called between cycles
// only, so the reference samples the same seconds of host behaviour as
// the workload without sharing a timed interval with it.
func (h *hostProbe) burst() {
	u, s := cpuTimes()
	t0 := wall.Elapsed()
	ns := make([]float64, 0, refBurst/2)
	for i := 0; i < refBurst; i++ {
		// The first runs of a burst pay for the caches the workload
		// just evicted; only the warm ones measure the host.
		if d := h.ref.run(); i >= refBurst/2 {
			ns = append(ns, float64(d))
		}
	}
	h.bursts = append(h.bursts, ns)
	h.last = wall.Elapsed()
	h.wall += h.last - t0
	u1, s1 := cpuTimes()
	h.cpu += (u1 - u) + (s1 - s)
}

func (h *hostProbe) resetCost() { h.wall, h.cpu = 0, 0 }

// slowdown is how much slower than nominal the reference ran in bursts
// lo through hi (1.25: a quarter slower). The host changes speed within
// a run, so each stretch of work is judged by the bursts around it.
func (h *hostProbe) slowdown(lo, hi int) float64 {
	var ns []float64
	for _, b := range h.bursts[lo : hi+1] {
		ns = append(ns, b...)
	}
	return median(ns) / refNominalNs
}

// overall is the slowdown over every burst of the run.
func (h *hostProbe) overall() float64 { return h.slowdown(0, len(h.bursts)-1) }
