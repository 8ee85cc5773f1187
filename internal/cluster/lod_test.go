package cluster

import (
	"strings"
	"testing"

	"github.com/holmes-colocation/holmes/internal/faults"
)

// lodSpec is testSpec widened so the fleet has genuinely quiescent nodes
// for the level-of-detail policy to fast-forward.
func lodSpec() Spec {
	s := testSpec()
	s.Nodes = 10
	s.LoD = LoDAuto
	return s
}

func TestLoDSkipsQuiescentNodes(t *testing.T) {
	res, err := Run(lodSpec(), RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.LoDSkips == 0 {
		t.Fatal("LoD auto fast-forwarded no node-rounds on a mostly idle fleet")
	}
	if res.LoDSkips >= res.Rounds*res.Spec.Nodes {
		t.Fatalf("LoD skipped %d of %d node-rounds — the occupied nodes must simulate",
			res.LoDSkips, res.Rounds*res.Spec.Nodes)
	}
	// The interesting nodes still did their jobs at full fidelity.
	for _, s := range res.Services {
		if s.Queries == 0 {
			t.Errorf("service %s measured no queries under LoD auto", s.Name)
		}
	}
	if res.BatchCompleted == 0 {
		t.Error("no batch pods completed under LoD auto")
	}
	if res.BatchArrived != res.BatchDoneTotal+res.BatchRunning+res.BatchQueued+res.BatchFailed {
		t.Errorf("pod accounting not conserved: %d arrived != %d done + %d running + %d queued + %d failed",
			res.BatchArrived, res.BatchDoneTotal, res.BatchRunning, res.BatchQueued, res.BatchFailed)
	}
}

func TestLoDDeterministicAcrossWorkers(t *testing.T) {
	spec := lodSpec()
	r1, err := Run(spec, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(spec, RunOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Render() != r8.Render() {
		t.Fatalf("LoD output differs between Workers 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			r1.Render(), r8.Render())
	}
	if r1.LoDSkips != r8.LoDSkips {
		t.Fatalf("LoD skip counts differ: %d serial vs %d parallel", r1.LoDSkips, r8.LoDSkips)
	}
}

// TestLoDPreservesRenderedOutput pins what LoD auto keeps: every rendered
// line matches LoD full except the fidelity line and the utilization line.
// A fast-forwarded node's Holmes daemon does not run, so its CPU time is
// missing from ClusterUtil: auto may read lower than full, never higher.
func TestLoDPreservesRenderedOutput(t *testing.T) {
	auto := lodSpec()
	auto.Batch.Pods = 24
	full := auto
	full.LoD = LoDFull
	ra, err := Run(auto, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Run(full, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ra.LoDSkips == 0 {
		t.Fatal("LoD auto fast-forwarded nothing; the comparison would be vacuous")
	}
	if ra.ClusterUtil > rf.ClusterUtil {
		t.Errorf("LoD auto utilization %.6f above full %.6f", ra.ClusterUtil, rf.ClusterUtil)
	}
	if ra.BatchCompleted != rf.BatchCompleted || ra.PlacedBatch != rf.PlacedBatch {
		t.Errorf("batch pods completed/placed: auto %d/%d, full %d/%d",
			ra.BatchCompleted, ra.PlacedBatch, rf.BatchCompleted, rf.PlacedBatch)
	}
	keep := func(r *Result) []string {
		var out []string
		for _, l := range strings.Split(r.Render(), "\n") {
			if !strings.HasPrefix(l, "fidelity:") && !strings.HasPrefix(l, "cluster utilization:") {
				out = append(out, l)
			}
		}
		return out
	}
	la, lf := keep(ra), keep(rf)
	if len(la) != len(lf) {
		t.Fatalf("LoD auto rendered %d comparable lines, full %d", len(la), len(lf))
	}
	for i := range la {
		if la[i] != lf[i] {
			t.Errorf("line %d differs:\n auto: %s\n full: %s", i, la[i], lf[i])
		}
	}
}

// TestLoDDisabledUnderNodeChaos pins the contract: a node-fault schedule
// (crashes, partitions) forces full fidelity even under LoD auto, because
// its per-round semantics assume every machine advances in lockstep.
func TestLoDDisabledUnderNodeChaos(t *testing.T) {
	spec := lodSpec()
	sched := faults.DefaultSchedule()
	spec.Chaos = &sched
	res, err := Run(spec, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.LoDSkips != 0 {
		t.Fatalf("LoD fast-forwarded %d node-rounds under a node-fault schedule", res.LoDSkips)
	}
}
