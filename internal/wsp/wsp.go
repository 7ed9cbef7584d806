// Package wsp implements the WSP (Wootton, Sergent, Phan-Tan-Luu)
// space-filling design algorithm of Santiago et al. [45], the method
// the paper's experimental design uses to select its 253 scenarios per
// class from the Table 1 parameter ranges (§4.1, following Paasch et
// al. [37]).
//
// WSP selects, from a large candidate cloud in the unit hypercube, a
// subset whose points are pairwise at least dmin apart: starting from
// a seed point, all candidates closer than dmin are discarded, the
// nearest survivor becomes the next selected point, and the process
// repeats. Adjusting dmin tunes the subset size; Select binary-searches
// dmin to hit a requested count.
package wsp

import (
	"math"

	"mpquic/internal/sim"
)

// Point is one design point in [0,1)^d.
type Point []float64

// dist2 is squared Euclidean distance.
func dist2(a, b Point) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Candidates generates n uniform random points in [0,1)^d.
func Candidates(n, d int, rng *sim.Rand) []Point {
	pts := make([]Point, n)
	for i := range pts {
		p := make(Point, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// wspOnce runs the core WSP selection with a fixed minimum distance,
// returning the selected subset (order of selection preserved).
func wspOnce(candidates []Point, dmin float64, seedIdx int) []Point {
	d2 := dmin * dmin
	alive := make([]bool, len(candidates))
	for i := range alive {
		alive[i] = true
	}
	var selected []Point
	cur := seedIdx
	for {
		selected = append(selected, candidates[cur])
		alive[cur] = false
		// Discard everything within dmin of the current point, and
		// find the nearest survivor.
		nearest, nearestD := -1, math.MaxFloat64
		for i, ok := range alive {
			if !ok {
				continue
			}
			dd := dist2(candidates[cur], candidates[i])
			if dd < d2 {
				alive[i] = false
				continue
			}
			if dd < nearestD {
				nearestD = dd
				nearest = i
			}
		}
		if nearest == -1 {
			return selected
		}
		cur = nearest
	}
}

// Select picks approximately want points from a candidate cloud of
// size pool in [0,1)^d, binary-searching the WSP minimum distance. The
// result is truncated to exactly want points when the search
// overshoots (it selects the prefix, preserving WSP's ordering).
func Select(want, d int, seed uint64) []Point {
	if want <= 0 {
		return nil
	}
	rng := sim.NewRand(seed)
	pool := want * 40
	if pool < 2000 {
		pool = 2000
	}
	candidates := Candidates(pool, d, rng)
	seedIdx := rng.Intn(pool)

	// dmin too small selects nearly everything; too large selects few.
	lo, hi := 0.0, math.Sqrt(float64(d)) // max possible distance
	var best []Point
	for iter := 0; iter < 40; iter++ {
		mid := (lo + hi) / 2
		got := wspOnce(candidates, mid, seedIdx)
		if len(got) >= want {
			best = got
			lo = mid // try a larger dmin → fewer, better-spread points
		} else {
			hi = mid
		}
		if len(got) == want {
			break
		}
	}
	if best == nil {
		best = wspOnce(candidates, lo, seedIdx)
	}
	if len(best) > want {
		best = best[:want]
	}
	return best
}
