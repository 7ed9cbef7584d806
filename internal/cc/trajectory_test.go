package cc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"
)

// scriptRand is splitmix64: the script below must not change with the
// Go release, so it does not use math/rand.
type scriptRand uint64

func (r *scriptRand) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *scriptRand) intn(n int) int { return int(r.next() % uint64(n)) }

// clamped is what the script drives: a Controller plus the send-buffer
// clamp every implementation has.
type clamped interface {
	Controller
	SetMaxCwnd(int)
}

// lossPerMille is the script's loss rate for each run of 200 steps:
// quiet stretches let windows reach the clamp, stormy ones push them to
// the floor.
var lossPerMille = [10]int{2, 60, 5, 120, 0, 30, 2, 200, 5, 10}

// trajectory drives paths through a seeded 2 000-step script — ACKs of
// varying size and RTT, congestion events, RTOs (a quarter of the
// losses), and a SetMaxCwnd clamp on every path that starts at 64
// packets, tightens to 24 at step 1 200 and lifts at step 1 700 — and
// returns the sha256 of every path's (cwnd, InSlowStart) after every
// step. advance moves the controllers' clock, for CUBIC: a few
// milliseconds a step, and one 30 s idle gap at step 900 that puts its
// target far above the window.
func trajectory(seed uint64, paths []clamped, advance func(time.Duration)) string {
	rng := scriptRand(seed)
	h := sha256.New()
	var rec [9]byte
	clamp := map[int]int{0: 64 * mss, 1200: 24 * mss, 1700: 1 << 30}
	for step := 0; step < 2000; step++ {
		advance(time.Duration(rng.intn(5000)) * time.Microsecond)
		if step == 900 {
			advance(30 * time.Second)
		}
		if b, ok := clamp[step]; ok {
			for _, p := range paths {
				p.SetMaxCwnd(b)
			}
		}
		p := paths[rng.intn(len(paths))]
		loss := lossPerMille[step/200]
		switch op := rng.intn(1000); {
		case op < loss/4:
			p.OnRTO()
		case op < loss:
			p.OnCongestionEvent()
		case op >= 975:
			p.OnPacketAcked(40+rng.intn(3*mss), 0) // no RTT sample: coupled controllers keep their last
		default:
			bytes := 40 + rng.intn(3*mss)
			rtt := time.Duration(rng.intn(300_000)) * time.Microsecond
			p.OnPacketAcked(bytes, rtt)
		}
		for _, q := range paths {
			binary.BigEndian.PutUint64(rec[:8], uint64(q.Cwnd()))
			rec[8] = 0
			if q.InSlowStart() {
				rec[8] = 1
			}
			h.Write(rec[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestControllerTrajectoriesPinned pins the integer window arithmetic
// of all four controllers: the hashes were recorded before they shared
// one window, and LIA and Reno run in no golden grid, so nothing else
// would notice a change to them.
func TestControllerTrajectoriesPinned(t *testing.T) {
	cases := []struct {
		name  string
		build func(now func() time.Duration) []clamped
		want  string
	}{
		{"reno", func(func() time.Duration) []clamped { return []clamped{NewReno(mss)} },
			"50d75cac2f8b2e7dc4399a20a605fa7b3db945720d638e9bed39198ae0736ee1"},
		{"cubic", func(now func() time.Duration) []clamped { return []clamped{NewCubic(mss, now)} },
			"c18884a91ee9683f3ee2facf6e30d01b98ea58287bc4d55544bbb3467d6ae7ca"},
		{"olia-1path", func(func() time.Duration) []clamped { return []clamped{NewOlia(mss).AddPath()} },
			"6a56d5c0448ef6c95fef41f8924968ff35af792bb624a694ae3e8cd151ceee6c"},
		{"olia-2path", func(func() time.Duration) []clamped {
			o := NewOlia(mss)
			return []clamped{o.AddPath(), o.AddPath()}
		},
			"54858d17034b62ea67db4d43ecb2c9200f0062721458ce8e518d0375da293c0e"},
		{"lia-1path", func(func() time.Duration) []clamped { return []clamped{NewLia(mss).AddPath()} },
			"84087bfe5ee9794b33990a94f64a157e973b328e58fb4f512bfad25359b91b12"},
		{"lia-2path", func(func() time.Duration) []clamped {
			l := NewLia(mss)
			return []clamped{l.AddPath(), l.AddPath()}
		},
			"07c77b3c71d04c701f55e4d099a81ed95304740fbaccffcd3e9cfc519d9789d9"},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Second
			paths := tc.build(func() time.Duration { return now })
			got := trajectory(uint64(i+1), paths, func(d time.Duration) { now += d })
			if got != tc.want {
				t.Errorf("trajectory hash %s, want %s", got, tc.want)
			}
		})
	}
}
