package expdesign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// The committed smoke-grid baselines: sha256 of the JSONL artifact each
// config below writes. Captured on linux/amd64; any behavioural change
// to the simulator, the seed derivation, the scenario generator or the
// artifact encoding shows up here as a hash mismatch.
//
// If you changed behaviour ON PURPOSE, re-run the config (e.g.
// `mpq-bench -exp fig3 -scenarios 8 -artifacts out -progress=false`),
// paste the new sha256sum, and say why in the commit message. If you
// did NOT mean to change behaviour, this failure is the bug.
var goldenSmokeGrids = []struct {
	name      string
	class     Class
	scenarios int
	sha256    string
}{
	{"fig3-smoke", LowBDPNoLoss, 8,
		"f7cd940412d0c3dfb2f433c9cd81422520dd1c378d6a7a02d7a687a5f12e47e8"},
	{"dyn-bursty-smoke", BurstyLossGrid, 4,
		"de81a86d09501ef3773f874eee9247dbc9f8a5b6e3d155e6eaa6e05c2270b04a"},
	// The two lossy classes pin SACK/FACK/RTO recovery, at small and at
	// large windows, for all four stacks.
	{"low-bdp-losses-smoke", LowBDPLosses, 4,
		"f46e7ca53b1249c2885f5e48e15b6fddf70ca210bd0020b28b615e24debfb993"},
	{"high-bdp-losses-smoke", HighBDPLosses, 4,
		"ab429cbb745f312679c201f51a1b7ce1d6af2327a37247bf64e63a12c4020058"},
}

// TestSmokeGridGoldenArtifacts runs the smoke grids twice each and
// asserts (a) the two runs are byte-identical — same-seed determinism,
// on every platform — and (b) on amd64, that the bytes hash to the
// committed baseline, pinning today's artifacts to the pre-existing
// ones. The hash check is gated to amd64 because the Go spec lets
// other architectures fuse floating-point multiply-adds, which can
// legitimately perturb low-order bits of simulated transfer times.
func TestSmokeGridGoldenArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke grids take ~30s; skipped with -short")
	}
	for _, g := range goldenSmokeGrids {
		t.Run(g.name, func(t *testing.T) {
			dir := t.TempDir()
			var runs [][]byte
			for i := 0; i < 2; i++ {
				path := filepath.Join(dir, ArtifactFileName(g.class, LargeTransfer, 0, 1))
				if _, err := RunGrid(GridConfig{
					Class:        g.class,
					Scenarios:    g.scenarios,
					Size:         LargeTransfer,
					Reps:         1,
					ArtifactPath: path,
				}); err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, b)
				os.Remove(path)
			}
			if !bytes.Equal(runs[0], runs[1]) {
				t.Fatal("two same-seed smoke grid runs produced different artifact bytes")
			}
			if runtime.GOARCH != "amd64" {
				t.Logf("skipping baseline hash on %s (FMA may perturb float results)", runtime.GOARCH)
				return
			}
			sum := sha256.Sum256(runs[0])
			if got := hex.EncodeToString(sum[:]); got != g.sha256 {
				t.Errorf("smoke grid %s drifted from the committed baseline:\n got %s\nwant %s\n"+
					"If this change is intentional, update goldenSmokeGrids and explain in the commit.",
					g.name, got, g.sha256)
			}
		})
	}
}
