package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMedian(t *testing.T) {
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if Median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Fatal("even median")
	}
	if !math.IsNaN(Median(nil)) {
		t.Fatal("empty median should be NaN")
	}
}

func TestPercentileEndpoints(t *testing.T) {
	xs := []float64{5, 1, 9, 3}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 9 {
		t.Fatal("endpoint percentiles")
	}
	if Percentile(xs, -5) != 1 || Percentile(xs, 200) != 9 {
		t.Fatal("clamping")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 25); got != 2.5 {
		t.Fatalf("got %v", got)
	}
}

func TestMeanAndFractionAbove(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Fatal("mean")
	}
	if FractionAbove(xs, 2) != 0.5 {
		t.Fatal("fraction above")
	}
	if FractionAbove(xs, 0) != 1 || FractionAbove(xs, 4) != 0 {
		t.Fatal("fraction extremes")
	}
}

func TestCDFMonotonic(t *testing.T) {
	xs := []float64{3, 1, 2, 2}
	cdf := CDF(xs)
	if len(cdf) != 4 {
		t.Fatal("length")
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].X < cdf[i-1].X || cdf[i].P <= cdf[i-1].P {
			t.Fatalf("not monotone at %d: %+v", i, cdf)
		}
	}
	if cdf[len(cdf)-1].P != 1 {
		t.Fatal("CDF must end at 1")
	}
}

func TestBoxOf(t *testing.T) {
	b := BoxOf([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Median != 3 || b.Max != 5 || b.N != 5 {
		t.Fatalf("box %+v", b)
	}
	if b.Q1 != 2 || b.Q3 != 4 {
		t.Fatalf("quartiles %+v", b)
	}
}

// Property: percentile is monotone in p and bounded by the data range.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, aSeed, bSeed uint8) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := float64(aSeed) / 255 * 100
		b := float64(bSeed) / 255 * 100
		if a > b {
			a, b = b, a
		}
		pa, pb := Percentile(xs, a), Percentile(xs, b)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return pa <= pb && pa >= sorted[0] && pb <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
