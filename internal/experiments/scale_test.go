package experiments

import (
	"strings"
	"testing"
)

// TestScaleExperiment runs the 256-node comparison at a compressed scale
// and checks the verdict machinery end-to-end: conservation in every arm,
// the LoD fast path actually engaged, and the scoring placer holding its
// headline win over binpack.
func TestScaleExperiment(t *testing.T) {
	skipHeavyUnderRace(t)
	t.Parallel()
	r, err := RunScale(Options{Seed: 42, Scale: 0.3, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	for name, arm := range map[string]interface {
		TotalQueries() int64
	}{"score": r.Score, "vpi": r.VPI, "binpack": r.BinPack} {
		if arm.TotalQueries() == 0 {
			t.Errorf("%s arm measured no queries", name)
		}
	}
	if !conserved(r.Score) || !conserved(r.VPI) || !conserved(r.BinPack) {
		t.Errorf("pod accounting not conserved: score %+v", r.Score)
	}
	if r.Score.LoDSkips == 0 {
		t.Error("LoD auto fast-forwarded nothing on a 256-node fleet")
	}
	if !r.Measured() {
		t.Errorf("scoring arm measured only %d queries", r.Score.TotalQueries())
	}
	if !r.ScoreWins() {
		t.Errorf("scoring placer lost to binpack: p99 %.1f vs %.1f us, SLO %.3f%% vs %.3f%%",
			r.Score.MeanP99/1e3, r.BinPack.MeanP99/1e3,
			100*r.Score.SLOViolationRatio, 100*r.BinPack.SLOViolationRatio)
	}
	out := r.Render()
	for _, want := range []string{"pod accounting [score]", "head to head (score vs vpi vs binpack)",
		"scale verdict", "fidelity: lod=auto"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if !strings.Contains(out, "scale verdict (256 nodes; score <= binpack on p99 and SLO%, all arms conserved): PASS") {
		t.Errorf("verdict not PASS:\n%s", out)
	}
}
