package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkDecl is the part of BENCHMARK.json -compare needs.
type benchmarkDecl struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSet is one file's runs of one workload.
type runSet struct {
	values            map[string][]float64
	attempted, failed int
}

func loadRuns(path string) (map[string]*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sets := make(map[string]*runSet)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var line struct {
			Workload  string            `json:"workload"`
			Trace     int               `json:"trace"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if line.Trace != 0 {
			continue // end-to-end numbers are only taken with tracing off
		}
		rs := sets[line.Workload]
		if rs == nil {
			rs = &runSet{values: make(map[string][]float64)}
			sets[line.Workload] = rs
		}
		rs.attempted += line.Attempted
		rs.failed += line.Failed
		names := make([]string, 0, len(line.Metrics))
		for name := range line.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			rs.values[name] = append(rs.values[name], line.Metrics[name].Value)
		}
	}
	return sets, sc.Err()
}

func (rs *runSet) failRatio() float64 {
	if rs.attempted == 0 {
		return 0
	}
	return float64(rs.failed) / float64(rs.attempted)
}

// spread is the interquartile distance of xs as a share of its median,
// with the quartiles Python's statistics.quantiles(xs, n=4) gives (the
// exclusive method): the statistic the benchmark's bounds are set by.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	med := median(xs)
	if med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	iqr := (quartile(3) - quartile(1)) / med
	if iqr < 0 {
		iqr = -iqr
	}
	return iqr
}

// verdict classifies b against a for one metric. worse: b's median is
// worse than a's by more than the bound. unresolved: either file's own
// spread exceeds the bound, unless every run of b beats every run of a.
// better: b's median wins by more than a's spread. Otherwise same.
func verdict(a, b []float64, higherIsBetter bool, bound float64) (string, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved", 0
	}
	change := (mb - ma) / ma // signed, in the metric's own direction
	gain := change
	if !higherIsBetter {
		gain = -change
	}
	sa, sb := spread(a), spread(b)
	if sa > bound || sb > bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				if (higherIsBetter && x <= y) || (!higherIsBetter && x >= y) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "better", change
		}
		return "unresolved", change
	}
	switch {
	case gain < -bound:
		return "worse", change
	case gain > sa && gain > 0:
		return "better", change
	default:
		return "same", change
	}
}

// runCompare prints, per workload and end-to-end metric, how file b
// stands against file a under the bounds BENCHMARK.json fixes, and
// returns non-zero on any "worse" or a higher share of failed units.
func runCompare(declPath, aPath, bPath string, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(declPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	var decl benchmarkDecl
	if err := json.Unmarshal(raw, &decl); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", declPath, err)
		return 2
	}
	a, err := loadRuns(aPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := loadRuns(bPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	all := make([]string, 0, len(a))
	for w := range a {
		all = append(all, w)
	}
	sort.Strings(all)
	var names []string
	for _, w := range all {
		if b[w] != nil {
			names = append(names, w)
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(stderr, "bench: the two files share no workload")
		return 2
	}
	exit := 0
	fmt.Fprintf(stdout, "%-18s %-16s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "a.median", "b.median", "change", "a.iqr", "b.iqr", "bound", "verdict")
	for _, w := range names {
		ra, rb := a[w], b[w]
		for _, m := range decl.EndToEnd {
			va, vb := ra.values[m.Name], rb.values[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, change := verdict(va, vb, m.Better == "higher", m.Bound)
			if v == "worse" {
				exit = 1
			}
			fmt.Fprintf(stdout, "%-18s %-16s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s (n=%d/%d)\n",
				w, m.Name, median(va), median(vb),
				change*100, spread(va)*100, spread(vb)*100, m.Bound*100, v, len(va), len(vb))
		}
		if fa, fb := ra.failRatio(), rb.failRatio(); fb > fa {
			exit = 1
			fmt.Fprintf(stdout, "%-18s %-16s %14.6g %14.6g  worse: more units failed\n", w, "fail_ratio", fa, fb)
		}
	}
	return exit
}
