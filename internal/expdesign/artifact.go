package expdesign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"sort"
	"sync"
)

// ArtifactVersion is the JSONL record schema version. Records with a
// different version are ignored on load, so a schema change simply
// invalidates old checkpoints instead of mis-parsing them.
const ArtifactVersion = 1

// ArtifactRecord is one completed scenario as persisted to a grid
// artifact file — one JSON object per line. The (ClassSeed, Scenario.ID,
// Size, Reps) tuple keys the record: a restarted or re-sharded grid
// recomputes a scenario only when no record with its key exists.
type ArtifactRecord struct {
	V         int             `json:"v"`
	Class     string          `json:"class"`
	ClassSeed uint64          `json:"class_seed"`
	Size      uint64          `json:"size"`
	Reps      int             `json:"reps"`
	Scenario  Scenario        `json:"scenario"`
	Runs      [4][2]RunResult `json:"runs"`
}

// artifactKey identifies one scenario's grid point. Class identity
// rides on the seed (class names and seeds are paired 1:1), so merged
// shards from differently-named-but-identically-seeded configs cannot
// alias.
type artifactKey struct {
	ClassSeed uint64
	ID        int
	Size      uint64
	Reps      int
}

func (r ArtifactRecord) key() artifactKey {
	return artifactKey{ClassSeed: r.ClassSeed, ID: r.Scenario.ID, Size: r.Size, Reps: r.Reps}
}

// ArtifactFileName is the canonical artifact name of a (class, size)
// grid: grid-<class>-<size>.jsonl, with the shard suffix
// .shard<i>of<n> before the extension when the grid is sharded.
func ArtifactFileName(class Class, size uint64, shard, numShards int) string {
	sizeTag := fmt.Sprintf("%dB", size)
	switch {
	case size >= 1<<20 && size%(1<<20) == 0:
		sizeTag = fmt.Sprintf("%dMB", size>>20)
	case size >= 1<<10 && size%(1<<10) == 0:
		sizeTag = fmt.Sprintf("%dKB", size>>10)
	}
	if numShards > 1 {
		return fmt.Sprintf("grid-%s-%s.shard%dof%d.jsonl", class.Name, sizeTag, shard, numShards)
	}
	return fmt.Sprintf("grid-%s-%s.jsonl", class.Name, sizeTag)
}

// Checkpoint is an append-only JSONL store of completed scenarios.
// Opening loads every valid existing record (tolerating a truncated
// trailing line from an interrupted writer); Append persists one
// scenario as soon as it finishes, so an interrupted grid loses at
// most the scenarios still in flight.
type Checkpoint struct {
	path string

	mu   sync.Mutex
	f    *os.File
	done map[artifactKey]ArtifactRecord
}

// OpenCheckpoint opens (creating if needed) the artifact file at path
// and indexes its existing records for resume lookups.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	done, err := readArtifactFile(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	// A write torn by the previous interruption can leave the file
	// without a trailing newline; terminate it so the next record
	// starts on a fresh line instead of extending the corpse.
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		tail := make([]byte, 1)
		if _, err := f.ReadAt(tail, st.Size()-1); err == nil && tail[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	return &Checkpoint{path: path, f: f, done: done}, nil
}

// Lookup returns the persisted result for a scenario of the given grid
// configuration, if one exists.
func (cp *Checkpoint) Lookup(cfg GridConfig, sc Scenario) (ScenarioResult, bool) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	rec, ok := cp.done[artifactKey{ClassSeed: cfg.Class.Seed, ID: sc.ID, Size: cfg.Size, Reps: cfg.Reps}]
	if !ok {
		return ScenarioResult{}, false
	}
	return ScenarioResult{Scenario: rec.Scenario, Runs: rec.Runs}, true
}

// Append persists one completed scenario. Safe for concurrent use by
// the grid workers; each record is written with a single buffered
// write-plus-newline so lines never interleave.
func (cp *Checkpoint) Append(cfg GridConfig, sr ScenarioResult) error {
	rec := ArtifactRecord{
		V:         ArtifactVersion,
		Class:     cfg.Class.Name,
		ClassSeed: cfg.Class.Seed,
		Size:      cfg.Size,
		Reps:      cfg.Reps,
		Scenario:  sr.Scenario,
		Runs:      sr.Runs,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.f == nil {
		return fmt.Errorf("expdesign: checkpoint %s is closed", cp.path)
	}
	if _, err := cp.f.Write(line); err != nil {
		return err
	}
	cp.done[rec.key()] = rec
	return nil
}

// Close flushes and closes the underlying file.
func (cp *Checkpoint) Close() error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.f == nil {
		return nil
	}
	err := cp.f.Close()
	cp.f = nil
	return err
}

// readArtifactFile parses a JSONL artifact into a key-indexed map. A
// missing file yields an empty map and a malformed line (the tail of an
// interrupted write) is skipped rather than failing the load; later
// duplicates of a key win, matching append-order semantics. A line has
// no length limit: a sampled grid's record carries each run's time
// series, tens of MB for a long lossy run.
func readArtifactFile(path string) (map[artifactKey]ArtifactRecord, error) {
	out := make(map[artifactKey]ArtifactRecord)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return out, nil
		}
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		var rec ArtifactRecord
		if json.Unmarshal(line, &rec) == nil && rec.V == ArtifactVersion {
			out[rec.key()] = rec
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// LoadFigureData reads one or more grid artifact files (e.g. the
// shards of a split grid) and merges them into a FigureData, deduped
// by scenario key and sorted by scenario ID. All records must agree on
// (class, size); mixing grids is an error.
func LoadFigureData(paths ...string) (FigureData, error) {
	merged := make(map[artifactKey]ArtifactRecord)
	for _, path := range paths {
		recs, err := readArtifactFile(path)
		if err != nil {
			return FigureData{}, err
		}
		maps.Copy(merged, recs)
	}
	var fd FigureData
	// Iterate the merged map through its sorted keys: the key is a
	// total order, so the result is deterministic even if two records
	// share a scenario ID (the mixed-grid error path below).
	keys := make([]artifactKey, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.ClassSeed != b.ClassSeed {
			return a.ClassSeed < b.ClassSeed
		}
		if a.Size != b.Size {
			return a.Size < b.Size
		}
		return a.Reps < b.Reps
	})
	for _, k := range keys {
		rec := merged[k]
		if fd.Class == "" {
			fd.Class, fd.Size = rec.Class, rec.Size
		}
		if rec.Class != fd.Class || rec.Size != fd.Size {
			return FigureData{}, fmt.Errorf("expdesign: mixed grids: (%s, %d) vs (%s, %d)",
				rec.Class, rec.Size, fd.Class, fd.Size)
		}
		fd.Results = append(fd.Results, ScenarioResult{Scenario: rec.Scenario, Runs: rec.Runs})
	}
	return fd, nil
}
