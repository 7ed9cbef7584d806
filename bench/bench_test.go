package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// toyParams shrinks every workload to a seconds-long smoke: two
// scenarios of 256 KiB, 256 KiB GETs, one set-up, a short budget.
func toyParams() params {
	return params{
		scenarios: 2,
		simSize:   256 << 10,
		getSize:   256 << 10,
		largeSize: 256 << 10,
		warmSize:  64 << 10,
		setupReps: 1,
		seconds:   0.3,
	}
}

// declaration is BENCHMARK.json as the driver reads it.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadDeclaration(t *testing.T) declaration {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// measureOrSkip runs one toy measurement, skipping where the sandbox
// denies UDP sockets (the live workloads), the way live_test.go does.
func measureOrSkip(t *testing.T, name string, tr *tracer) *result {
	t.Helper()
	res, err := measure(name, toyParams(), 0, tr)
	if errors.Is(err, errUDPDenied) {
		t.Skipf("%v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDeclarationMatchesHarness pins BENCHMARK.json to the registries
// the harness prints from: same names, same units, same order.
func TestDeclarationMatchesHarness(t *testing.T) {
	d := loadDeclaration(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("bad metric name %q", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("bad unit %q on %s", unit, name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end has %d metrics, harness %d", len(d.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range d.EndToEnd {
		check(m.Name, m.Unit)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), harness has %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
	if len(d.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, harness %d", len(d.PerLayer), len(perLayer))
	}
	for i, m := range d.PerLayer {
		check(m.Name, m.Unit)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), harness has %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}

	var declared []string
	for _, w := range d.Workloads {
		check(w.Name, "")
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if got := workloadNames(); strings.Join(got, ",") != strings.Join(declared, ",") {
		t.Errorf("workloads declared %v, harness has %v", declared, got)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", d.RunSeconds)
	}
}

// TestWorkloadsSmoke runs every workload at toy size, untraced and
// traced: outputs verify, and each run carries exactly the declared
// metrics with their units.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			label := name + "/end_to_end"
			if traced {
				label = name + "/per_layer"
			}
			t.Run(label, func(t *testing.T) {
				var tr *tracer
				defs := endToEnd
				if traced {
					tr = newTracer()
					defs = perLayer
				}
				res := measureOrSkip(t, name, tr)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok {
						t.Errorf("metric %s not emitted", d.name)
					} else if m.Unit != d.unit {
						t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", d.name, m.Value)
					}
				}
				// The last line of a real run must survive a JSON
				// round trip with exactly the contract's keys.
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var back map[string]json.RawMessage
				if err := json.Unmarshal(line, &back); err != nil {
					t.Fatal(err)
				}
				if len(back) != 4 {
					t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", back)
				}
			})
		}
	}
}

// TestSimReproduces: a simulator workload run twice reports the same
// simulated transfer time to the last digit, traced or not.
func TestSimReproduces(t *testing.T) {
	var got []float64
	for i := 0; i < 2; i++ {
		res := measureOrSkip(t, "sim_wire_crypto", newTracer())
		got = append(got, res.Metrics["bench.sim_transfer_s_p50"].Value)
	}
	if got[0] != got[1] || got[0] <= 0 {
		t.Errorf("bench.sim_transfer_s_p50 = %v then %v", got[0], got[1])
	}
}

// TestSpanFileParses: the traced run's span file is one JSON object
// per line whose parents refer to earlier spans of the same side.
func TestSpanFileParses(t *testing.T) {
	tr := newTracer()
	measureOrSkip(t, "sim_wire_crypto", tr)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.writeSpans(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lines, ingress := 0, 0
	for sc.Scan() {
		var sp spanLine
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("line %d: %v", lines+1, err)
		}
		if sp.EndNs < sp.StartNs || sp.Parent >= int32(sp.ID) || sp.Xfer < 0 {
			t.Fatalf("line %d: inconsistent span %+v", lines+1, sp)
		}
		if sp.Name == "core.ingress" {
			ingress++
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if ingress == 0 {
		t.Errorf("%d spans, none of them core.ingress", lines)
	}
}

// TestCompareVerdicts drives -compare over synthetic result files.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, goodputs []float64, failed int) string {
		path := filepath.Join(dir, name)
		for _, g := range goodputs {
			res := newResult(endToEnd)
			res.Correct, res.Attempted, res.Failed = failed == 0, 10, failed
			for _, d := range endToEnd {
				res.set(d.name, 1)
			}
			res.Metrics["goodput_mbps"] = metric{Value: g, Unit: "Mbit/s"}
			if err := appendResult(path, "live_loopback_2p", 0, 0, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", []float64{100, 101, 99, 100, 102}, 0)
	decl := filepath.Join("..", "BENCHMARK.json")
	for _, tc := range []struct {
		name     string
		goodputs []float64
		failed   int
		exit     int
		want     string
	}{
		{"same", []float64{100, 102, 99, 101, 100}, 0, 0, "same"},
		{"better", []float64{150, 151, 149, 152, 150}, 0, 0, "better"},
		{"worse", []float64{50, 51, 49, 50, 52}, 0, 1, "worse"},
		{"unresolved", []float64{60, 140, 100, 80, 120}, 0, 0, "unresolved"},
		{"failing", []float64{100, 101, 99, 100, 102}, 1, 1, "more units failed"},
	} {
		var out, errb bytes.Buffer
		exit := runCompare(decl, base, write(tc.name+".jsonl", tc.goodputs, tc.failed), &out, &errb)
		if exit != tc.exit {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, exit, tc.exit, out.String(), errb.String())
		}
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if (strings.Contains(line, "goodput_mbps") || strings.Contains(line, "fail_ratio")) && strings.Contains(line, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no %q verdict in\n%s", tc.name, tc.want, out.String())
		}
	}
}
