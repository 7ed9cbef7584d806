package wsp

import (
	"math"
	"testing"

	"mpquic/internal/sim"
)

// minPairwiseDistance is the smallest distance between two points of a
// design (0 below two points), the quantity WSP maximizes.
func minPairwiseDistance(pts []Point) float64 {
	if len(pts) < 2 {
		return 0
	}
	d2 := math.Inf(1)
	for i := range pts {
		for _, q := range pts[:i] {
			d2 = math.Min(d2, dist2(pts[i], q))
		}
	}
	return math.Sqrt(d2)
}

func TestSelectCount(t *testing.T) {
	for _, want := range []int{10, 50, 253} {
		pts := Select(want, 6, 1)
		if len(pts) != want {
			t.Fatalf("want %d points, got %d", want, len(pts))
		}
	}
}

func TestSelectDimensions(t *testing.T) {
	pts := Select(20, 8, 2)
	for _, p := range pts {
		if len(p) != 8 {
			t.Fatalf("dimension %d", len(p))
		}
		for _, v := range p {
			if v < 0 || v >= 1 {
				t.Fatalf("coordinate %v out of unit cube", v)
			}
		}
	}
}

func TestSelectDeterministic(t *testing.T) {
	a := Select(50, 4, 7)
	b := Select(50, 4, 7)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("same seed diverged")
			}
		}
	}
	c := Select(50, 4, 8)
	same := true
	for i := range a {
		for j := range a[i] {
			if a[i][j] != c[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds identical")
	}
}

func TestWSPSpreadsBetterThanRandom(t *testing.T) {
	const n, d = 100, 4
	wspPts := Select(n, d, 3)
	randPts := Candidates(n, d, sim.NewRand(3))
	dw := minPairwiseDistance(wspPts)
	dr := minPairwiseDistance(randPts)
	if dw <= dr {
		t.Fatalf("WSP min distance %v not better than random %v", dw, dr)
	}
	// WSP guarantees a healthy floor; random designs in 4-D with 100
	// points typically collapse below 0.1.
	if dw < 0.15 {
		t.Fatalf("WSP min distance %v too small", dw)
	}
}

func TestSelectCoversSpace(t *testing.T) {
	// Every octant of the 3-cube should receive at least one point
	// from a 100-point design.
	pts := Select(100, 3, 5)
	seen := map[int]bool{}
	for _, p := range pts {
		idx := 0
		for j, v := range p {
			if v >= 0.5 {
				idx |= 1 << j
			}
		}
		seen[idx] = true
	}
	if len(seen) != 8 {
		t.Fatalf("only %d/8 octants covered", len(seen))
	}
}

func TestMinPairwiseDistanceEdgeCases(t *testing.T) {
	if minPairwiseDistance(nil) != 0 {
		t.Fatal("empty design")
	}
	if minPairwiseDistance([]Point{{0.5, 0.5}}) != 0 {
		t.Fatal("single point")
	}
	d := minPairwiseDistance([]Point{{0, 0}, {3, 4}})
	if math.Abs(d-5) > 1e-12 {
		t.Fatalf("distance %v", d)
	}
}

func TestSelectZeroAndNegative(t *testing.T) {
	if Select(0, 3, 1) != nil {
		t.Fatal("zero points")
	}
	if Select(-5, 3, 1) != nil {
		t.Fatal("negative points")
	}
}
