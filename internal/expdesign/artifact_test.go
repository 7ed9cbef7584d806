package expdesign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testGridConfig is a small, fast grid shared by the artifact tests.
func testGridConfig(artifactPath string) GridConfig {
	return GridConfig{
		Class:        LowBDPNoLoss,
		Scenarios:    4,
		Size:         128 << 10,
		Reps:         1,
		Workers:      2,
		ArtifactPath: artifactPath,
	}
}

func mustRunGrid(t *testing.T, cfg GridConfig) FigureData {
	t.Helper()
	fd, err := RunGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fd
}

func countLines(t *testing.T, path string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(b), "\n")
}

func TestCheckpointResumeRoundTrip(t *testing.T) {
	reference := mustRunGrid(t, testGridConfig(""))

	// "Interrupted" run: only half the scenarios (shard 0 of 2) reach
	// the artifact file before the process dies.
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	partial := testGridConfig(path)
	partial.Shard, partial.NumShards = 0, 2
	mustRunGrid(t, partial)
	wrote := countLines(t, path)
	if wrote == 0 || wrote >= len(reference.Results) {
		t.Fatalf("partial run persisted %d/%d scenarios, want a strict subset",
			wrote, len(reference.Results))
	}

	// Restart over the full grid: persisted scenarios must be skipped
	// (only the missing ones appended) and the merged result must be
	// identical to an uninterrupted run.
	var calls []int
	resumed := testGridConfig(path)
	resumed.Progress = func(done, total int) { calls = append(calls, done) }
	got := mustRunGrid(t, resumed)
	if !reflect.DeepEqual(got, reference) {
		t.Fatal("resumed grid differs from uninterrupted run")
	}
	if appended := countLines(t, path) - wrote; appended != len(reference.Results)-wrote {
		t.Fatalf("resume appended %d records, want exactly the %d missing",
			appended, len(reference.Results)-wrote)
	}
	if len(calls) == 0 || calls[0] != wrote {
		t.Fatalf("first progress call %v, want restored count %d", calls, wrote)
	}

	// A third run finds everything on disk and recomputes nothing.
	before := countLines(t, path)
	again := mustRunGrid(t, testGridConfig(path))
	if !reflect.DeepEqual(again, reference) {
		t.Fatal("fully-cached grid differs")
	}
	if countLines(t, path) != before {
		t.Fatal("fully-cached run appended records")
	}
}

func TestCheckpointToleratesCorruptTail(t *testing.T) {
	reference := mustRunGrid(t, testGridConfig(""))

	path := filepath.Join(t.TempDir(), "grid.jsonl")
	partial := testGridConfig(path)
	partial.Shard, partial.NumShards = 0, 2
	mustRunGrid(t, partial)

	// Simulate a write cut off mid-record by the interruption.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"class":"low-BDP-no-loss","scenario":{"ID":3`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got := mustRunGrid(t, testGridConfig(path))
	if !reflect.DeepEqual(got, reference) {
		t.Fatal("resume over corrupt tail differs from uninterrupted run")
	}
}

func TestCheckpointReadsLongRecords(t *testing.T) {
	// A sampled grid writes each scenario's runs, time series included,
	// on one line: tens of MB for a long lossy run.
	rec := ArtifactRecord{V: ArtifactVersion, Size: 1, Reps: 1, Scenario: Scenario{ID: 7, Class: strings.Repeat("x", 20<<20)}}
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readArtifactFile(path)
	if err != nil {
		t.Fatalf("%d-byte record: %v", len(line), err)
	}
	if r, ok := got[rec.key()]; !ok || len(got) != 1 || r.Scenario.Class != rec.Scenario.Class {
		t.Fatalf("%d-byte record not read back (%d records)", len(line), len(got))
	}
}

func TestCheckpointKeyIncludesSizeAndReps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	cfg := testGridConfig(path)
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	sc := GenerateScenarios(cfg.Class, 1)[0]
	sr := ScenarioResult{Scenario: sc}
	sr.Runs[ProtoTCP][0] = RunResult{Completed: true, Elapsed: time.Second}
	if err := cp.Append(cfg, sr); err != nil {
		t.Fatal(err)
	}
	if _, ok := cp.Lookup(cfg, sc); !ok {
		t.Fatal("lookup missed the appended record")
	}
	other := cfg
	other.Size *= 2
	if _, ok := cp.Lookup(other, sc); ok {
		t.Fatal("lookup hit across a different transfer size")
	}
	other = cfg
	other.Reps = 3
	if _, ok := cp.Lookup(other, sc); ok {
		t.Fatal("lookup hit across a different rep count")
	}
	other = cfg
	other.Class = LowBDPLosses
	if _, ok := cp.Lookup(other, sc); ok {
		t.Fatal("lookup hit across a different class seed")
	}
}

func TestShardsPartitionAndMerge(t *testing.T) {
	reference := mustRunGrid(t, testGridConfig(""))

	dir := t.TempDir()
	const n = 3
	var paths []string
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		path := filepath.Join(dir, ArtifactFileName(LowBDPNoLoss, 128<<10, i, n))
		paths = append(paths, path)
		cfg := testGridConfig(path)
		cfg.Shard, cfg.NumShards = i, n
		fd := mustRunGrid(t, cfg)
		for _, sr := range fd.Results {
			if seen[sr.Scenario.ID] {
				t.Fatalf("scenario %d ran in two shards", sr.Scenario.ID)
			}
			seen[sr.Scenario.ID] = true
		}
	}
	if len(seen) != len(reference.Results) {
		t.Fatalf("shards covered %d/%d scenarios", len(seen), len(reference.Results))
	}

	merged, err := LoadFigureData(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, reference) {
		t.Fatal("merged shards differ from the unsharded run")
	}
}

func TestLoadFigureDataRejectsMixedGrids(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	cfgA := testGridConfig(a)
	cfgA.Scenarios = 1
	mustRunGrid(t, cfgA)
	cfgB := testGridConfig(b)
	cfgB.Scenarios = 1
	cfgB.Class = LowBDPLosses
	mustRunGrid(t, cfgB)
	if _, err := LoadFigureData(a, b); err == nil {
		t.Fatal("merging different classes should fail")
	}
}

func TestRunMetricsPopulated(t *testing.T) {
	fd := mustRunGrid(t, testGridConfig(""))
	for _, sr := range fd.Results {
		for proto := ProtoTCP; proto <= ProtoMPQUIC; proto++ {
			for start := 0; start < 2; start++ {
				r := sr.Runs[proto][start]
				m := r.Metrics
				tag := sr.Scenario.String() + " " + proto.String()
				if !r.Completed {
					t.Fatalf("%s: run incomplete", tag)
				}
				if m.Handshake <= 0 {
					t.Fatalf("%s: no handshake timestamp", tag)
				}
				if m.Handshake >= r.Elapsed+time.Second {
					t.Fatalf("%s: handshake %v after completion %v", tag, m.Handshake, r.Elapsed)
				}
				if m.PacketsSent == 0 {
					t.Fatalf("%s: no packets counted", tag)
				}
				wantPaths := 1
				if proto.Multipath() {
					wantPaths = 2
				}
				if len(m.Paths) != wantPaths {
					t.Fatalf("%s: %d path entries, want %d", tag, len(m.Paths), wantPaths)
				}
				var recvd, sent uint64
				for _, pm := range m.Paths {
					recvd += pm.BytesRecvd
					sent += pm.BytesSent
					if pm.FinalCwnd <= 0 {
						t.Fatalf("%s: final cwnd %d", tag, pm.FinalCwnd)
					}
				}
				if sent == 0 {
					t.Fatalf("%s: no per-path bytes sent", tag)
				}
				// The download must be accounted to the paths: the
				// client received at least the transfer size in total.
				if recvd < fd.Size {
					t.Fatalf("%s: per-path received %d < transfer size %d", tag, recvd, fd.Size)
				}
				// At least the initial path must have an RTT estimate.
				if m.Paths[0].SRTT <= 0 {
					t.Fatalf("%s: no smoothed RTT on the initial path", tag)
				}
			}
		}
	}
}

// TestRunSeedsCollisionFree enumerates every seed of the paper-scale
// evaluation (4 static + 3 dynamic classes × 253 scenarios × 4
// protocols × 2 initial paths × 3 repetitions) and asserts the
// derivation scheme documented at runSeed never assigns two runs the
// same PRNG stream.
func TestRunSeedsCollisionFree(t *testing.T) {
	all := append(append([]Class(nil), classes...), dynamicClasses...)
	seen := make(map[uint64]string, len(all)*PaperScenarioCount*4*2*Repetitions)
	for _, class := range all {
		for id := 0; id < PaperScenarioCount; id++ {
			for proto := ProtoTCP; proto <= ProtoMPQUIC; proto++ {
				for start := 0; start < 2; start++ {
					base := runSeed(class, id, proto, start)
					for rep := 0; rep < Repetitions; rep++ {
						seed := base + uint64(rep)*7919
						key := class.Name + "/" + proto.String()
						if prev, dup := seen[seed]; dup {
							t.Fatalf("seed %d collides: %s id=%d start=%d rep=%d vs %s",
								seed, key, id, start, rep, prev)
						}
						seen[seed] = key
					}
				}
			}
		}
	}
}
