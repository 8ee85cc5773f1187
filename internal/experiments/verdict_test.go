package experiments

import (
	"testing"

	"github.com/holmes-colocation/holmes/internal/cluster"
)

// The verdict tables build results by hand. Case k satisfies the first k
// clauses and breaks every later one, so each row shows which clause
// wins when several fail at once; the last row satisfies them all.

func TestScaleVerdictClauses(t *testing.T) {
	build := func(satisfied int) *ScaleResult {
		score := &cluster.Result{BatchArrived: 1, MeanP99: 2}
		if satisfied > 0 {
			score.BatchArrived = 0
		}
		if satisfied > 1 {
			score.Services = []cluster.ServiceResult{{Queries: scaleMinQueries}}
		}
		if satisfied > 2 {
			score.LoDSkips = 5
		}
		if satisfied > 3 {
			score.MeanP99 = 1
		}
		return &ScaleResult{Score: score, VPI: &cluster.Result{}, BinPack: &cluster.Result{MeanP99: 1}}
	}
	want := []string{
		"FAIL (pod accounting not conserved)",
		"FAIL (only 0 completed queries, need >= 100 for a verdict)",
		"FAIL (LoD auto fast-forwarded nothing on a 256-node fleet)",
		"FAIL (scoring placer worse than binpack)",
		"PASS",
	}
	for k, w := range want {
		if got := build(k).Verdict().String(); got != w {
			t.Errorf("%d clauses satisfied: verdict %q, want %q", k, got, w)
		}
	}
}

func TestChaosVerdictClauses(t *testing.T) {
	build := func(satisfied int) *ChaosResult {
		clean := &cluster.Result{PageAlerts: 1}
		degraded := &cluster.Result{SLOViolationRatio: 0.5}
		if satisfied > 0 {
			degraded.Services = []cluster.ServiceResult{{Queries: chaosMinQueries}}
		}
		if satisfied > 1 {
			degraded.SLOViolationRatio = 0.001
		}
		if satisfied > 2 {
			clean.PageAlerts, degraded.PageAlerts = 0, 1
		}
		return &ChaosResult{Clean: clean, Degraded: degraded, Control: &cluster.Result{}}
	}
	want := []string{
		"FAIL (only 0 completed queries, need >= 100 for a verdict)",
		"FAIL",
		"FAIL (burn-rate alerts wrong: degraded 0 page, clean 1 page)",
		"PASS",
	}
	for k, w := range want {
		if got := build(k).Verdict().String(); got != w {
			t.Errorf("%d clauses satisfied: verdict %q, want %q", k, got, w)
		}
	}
}
