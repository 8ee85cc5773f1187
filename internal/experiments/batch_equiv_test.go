package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/holmes-colocation/holmes/internal/machine"
)

// TestRegistryBatchingEquivalence is the registry-wide half of the
// interval-batching equivalence contract (the per-scenario half lives in
// internal/machine/equiv): every experiment must render its golden text
// with interval batching on and off, serially and across eight workers.
// The batched path elides only provably no-op work, so any divergence
// here is a correctness bug in the interval engine, not a tolerance
// question.
//
// By default the test renders fig2 and chaos serially with batching off,
// the reference path TestRegistryGolden's batched parallel render does not
// take; HOLMES_EQUIV_FULL=1 (make batch-equiv) runs every id in all four
// modes. On failure, if HOLMES_EQUIV_DIFF_DIR is set, the divergent
// renderings are written there so CI can upload them as an artifact.
func TestRegistryBatchingEquivalence(t *testing.T) {
	skipRegistryUnderRace(t)
	prev := machine.DefaultIntervalBatching()
	defer machine.SetDefaultIntervalBatching(prev)

	type mode struct {
		name     string
		batching bool
		parallel int
	}
	ids := []string{"fig2", "chaos"}
	modes := []mode{{"off-parallel1", false, 1}}
	if os.Getenv("HOLMES_EQUIV_FULL") != "" {
		ids = IDs()
		modes = append(modes, mode{"off-parallel8", false, 8},
			mode{"on-parallel1", true, 1}, mode{"on-parallel8", true, 8})
	}
	for _, m := range modes {
		machine.SetDefaultIntervalBatching(m.batching)
		o := goldenOptions
		o.Parallel = m.parallel
		outs, err := RunIDs(o, ids)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		for i, id := range ids {
			name := "registry/" + id
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if outs[i] != string(want) {
				t.Errorf("%s: output differs from %s under %s (golden %d bytes, got %d bytes)",
					id, name, m.name, len(want), len(outs[i]))
				saveEquivDiff(t, id, m.name, outs[i])
			}
		}
	}
}

// saveEquivDiff writes a divergent rendering to HOLMES_EQUIV_DIFF_DIR (if
// set) for CI artifact upload, next to the golden it should match.
func saveEquivDiff(t *testing.T, id, mode, got string) {
	t.Helper()
	dir := os.Getenv("HOLMES_EQUIV_DIFF_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("equiv diff dir: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.%s.got.txt", id, mode))
	if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
		t.Logf("equiv diff write: %v", err)
	}
}
