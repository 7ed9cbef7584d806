// Package stats provides the small statistical toolkit the evaluation
// needs: medians (the paper reports the median of 3 repetitions),
// percentiles, CDF sampling for the time-ratio figures, and five-number
// box summaries for the aggregation-benefit figures.
package stats

import (
	"math"
	"sort"
)

// Median returns the median of xs (NaN for empty input).
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile (0..100) using linear
// interpolation between closest ranks. NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// FractionAbove reports the fraction of xs strictly greater than
// threshold.
func FractionAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	n := 0
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // cumulative probability
}

// CDF returns the empirical CDF of xs as sorted points.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]CDFPoint, len(s))
	for i, x := range s {
		out[i] = CDFPoint{X: x, P: float64(i+1) / float64(len(s))}
	}
	return out
}

// Box is a five-number summary plus the mean, matching the boxplots of
// the paper's Figs. 4, 6, 7 and 10.
type Box struct {
	Min, Q1, Median, Q3, Max, Mean float64
	N                              int
}

// BoxOf summarizes xs.
func BoxOf(xs []float64) Box {
	return Box{
		Min:    Percentile(xs, 0),
		Q1:     Percentile(xs, 25),
		Median: Percentile(xs, 50),
		Q3:     Percentile(xs, 75),
		Max:    Percentile(xs, 100),
		Mean:   Mean(xs),
		N:      len(xs),
	}
}
