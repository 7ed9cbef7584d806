package expdesign

import (
	"strings"
	"testing"

	"mpquic/internal/core"
)

// TestAblationDefaultSideIsTheGridsRun pins the pairing: the default
// side of every cell is exactly the MPQUIC run a grid of the same class
// and size would make — same seed, same rep stride, same median — and a
// knob that changes nothing ties every pair and goes.
func TestAblationDefaultSideIsTheGridsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 2 scenarios of every class at 20 MB; skipped with -short")
	}
	const scenarios, reps = 2, 3
	same := Knob{Name: "same", Set: func(*core.Config) {}}
	cells := RunAblations([]Knob{same}, scenarios, reps, 0, nil)
	if len(cells) != len(classes)*2 {
		t.Fatalf("%d cells, want one per class and size", len(cells))
	}
	for _, c := range cells {
		var class Class
		for _, cl := range classes {
			if cl.Name == c.Class {
				class = cl
			}
		}
		if len(c.Pairs) != 2*scenarios {
			t.Fatalf("%s %s: %d pairs, want %d", c.Class, fmtSize(c.Size), len(c.Pairs), 2*scenarios)
		}
		for i, sc := range GenerateScenarios(class, scenarios) {
			for start := 0; start < 2; start++ {
				want := RunMedian(sc, ProtoMPQUIC, c.Size, start, reps, runSeed(class, sc.ID, ProtoMPQUIC, start), RunOpts{}).Elapsed
				if got := c.Pairs[2*i+start][0]; got != want {
					t.Errorf("%s %s scenario %d start %d: default side %v, the grid's MPQUIC run %v",
						c.Class, fmtSize(c.Size), sc.ID, start, got, want)
				}
			}
		}
		for _, p := range c.Pairs {
			if p[1] != p[0] {
				t.Errorf("%s %s: a knob that changes nothing read %v against %v", c.Class, fmtSize(c.Size), p[1], p[0])
			}
		}
	}
	if report := ReportAblations([]Knob{same}, cells, reps); !strings.Contains(report, "same                   moves 0 of 8 cells: goes") {
		t.Errorf("report:\n%s", report)
	}
}
