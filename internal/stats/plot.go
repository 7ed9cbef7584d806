package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// AsciiCDF renders one or more empirical CDFs as a text plot, the
// terminal rendition of the paper's Figs. 3/5/8/9. The x axis is
// log-scaled between xMin and xMax (the paper plots time ratios on a
// log axis from 10⁻¹ to 10¹); each series gets its own glyph.
func AsciiCDF(series map[string][]float64, xMin, xMax float64, width, height int) string {
	if width < 20 {
		width = 60
	}
	if height < 5 {
		height = 12
	}
	if xMin <= 0 {
		xMin = 0.1
	}
	if xMax <= xMin {
		xMax = xMin * 100
	}
	glyphs := []byte{'*', 'o', '+', 'x', '#'}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	logMin, logMax := math.Log10(xMin), math.Log10(xMax)
	col := func(x float64) int {
		if x < xMin {
			x = xMin
		}
		if x > xMax {
			x = xMax
		}
		c := int((math.Log10(x) - logMin) / (logMax - logMin) * float64(width-1))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	row := func(p float64) int {
		r := height - 1 - int(p*float64(height-1))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}
	names := sortedKeys(series)
	for si, name := range names {
		g := glyphs[si%len(glyphs)]
		for _, pt := range CDF(series[name]) {
			grid[row(pt.P)][col(pt.X)] = g
		}
	}
	var b strings.Builder
	for i, line := range grid {
		p := 1 - float64(i)/float64(height-1)
		fmt.Fprintf(&b, "%4.2f |%s|\n", p, string(line))
	}
	fmt.Fprintf(&b, "     +%s+\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "      %-*.2g%*.2g\n", width/2, xMin, width-width/2, xMax)
	for si, name := range names {
		fmt.Fprintf(&b, "      %c %s\n", glyphs[si%len(glyphs)], name)
	}
	return b.String()
}

// AsciiBox renders labeled five-number boxes on a shared linear axis —
// the terminal rendition of the paper's Figs. 4/6/7/10.
//
//	label |----[==|==]-------|
func AsciiBox(boxes map[string]Box, lo, hi float64, width int) string {
	if width < 20 {
		width = 50
	}
	if hi <= lo {
		hi = lo + 1
	}
	col := func(x float64) int {
		if x < lo {
			x = lo
		}
		if x > hi {
			x = hi
		}
		c := int((x - lo) / (hi - lo) * float64(width-1))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	names := sortedKeys(boxes)
	labelW := 0
	for _, n := range names {
		if len(n) > labelW {
			labelW = len(n)
		}
	}
	var b strings.Builder
	for _, name := range names {
		box := boxes[name]
		line := []byte(strings.Repeat(" ", width))
		for c := col(box.Min); c <= col(box.Max); c++ {
			line[c] = '-'
		}
		for c := col(box.Q1); c <= col(box.Q3); c++ {
			line[c] = '='
		}
		line[col(box.Min)] = '|'
		line[col(box.Max)] = '|'
		line[col(box.Median)] = 'M'
		fmt.Fprintf(&b, "%-*s |%s|\n", labelW, name, string(line))
	}
	fmt.Fprintf(&b, "%-*s +%s+\n", labelW, "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%-*s  %-*.2g%*.2g\n", labelW, "", width/2, lo, width-width/2, hi)
	return b.String()
}

// Point is one (x, y) sample of a time series.
type Point struct {
	X float64
	Y float64
}

// AsciiTimeSeries renders one or more (x, y) series on shared linear
// axes — the terminal rendition of the paper's cwnd/RTT evolution
// figures. Axes auto-scale to the data (y is floored at 0 so byte
// quantities read naturally); each series gets its own glyph. Series
// are drawn in sorted-name order, so output is deterministic.
func AsciiTimeSeries(series map[string][]Point, width, height int) string {
	if width < 20 {
		width = 60
	}
	if height < 5 {
		height = 12
	}
	xMin, xMax := math.Inf(1), math.Inf(-1)
	yMax := math.Inf(-1)
	names := sortedKeys(series)
	for _, name := range names {
		for _, pt := range series[name] {
			xMin = math.Min(xMin, pt.X)
			xMax = math.Max(xMax, pt.X)
			yMax = math.Max(yMax, pt.Y)
		}
	}
	if math.IsInf(xMin, 1) { // no data at all
		xMin, xMax, yMax = 0, 1, 1
	}
	if xMax <= xMin {
		xMax = xMin + 1
	}
	if yMax <= 0 {
		yMax = 1
	}
	glyphs := []byte{'*', 'o', '+', 'x', '#'}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	col := func(x float64) int {
		c := int((x - xMin) / (xMax - xMin) * float64(width-1))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	row := func(y float64) int {
		if y < 0 {
			y = 0
		}
		r := height - 1 - int(y/yMax*float64(height-1))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}
	for si, name := range names {
		g := glyphs[si%len(glyphs)]
		for _, pt := range series[name] {
			grid[row(pt.Y)][col(pt.X)] = g
		}
	}
	var b strings.Builder
	for i, line := range grid {
		y := yMax * (1 - float64(i)/float64(height-1))
		fmt.Fprintf(&b, "%10.3g |%s|\n", y, string(line))
	}
	fmt.Fprintf(&b, "%10s +%s+\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%10s  %-*.3g%*.3g\n", "", width/2, xMin, width-width/2, xMax)
	for si, name := range names {
		fmt.Fprintf(&b, "%10s  %c %s\n", "", glyphs[si%len(glyphs)], name)
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
