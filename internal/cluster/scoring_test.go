package cluster

import "testing"

func TestScoringSpreadsGuaranteed(t *testing.T) {
	sts := mkStates([2]int{6, 0}, [2]int{0, 0}, [2]int{6, 0})
	sts[0].TrendVPI = 10
	sts[2].TrendVPI = 5
	got := placeChecked(t, ScoringPlacer{}, sts, PodRequest{Guaranteed: true, Threads: 4})
	if got != 1 {
		t.Fatalf("guaranteed pod placed on node %d, want 1 (empty, quiet)", got)
	}
}

func TestScoringBackfillsLendableSiblings(t *testing.T) {
	// Node 1 hosts a service whose reserved cores granted lendable
	// siblings — measured-quiet SMT capacity. The score prefers it over
	// the emptier node 0: lendable credit outweighs occupancy.
	sts := mkStates([2]int{0, 0}, [2]int{2, 0})
	sts[1].HB.Lendable = 4
	got := placeChecked(t, ScoringPlacer{}, sts, PodRequest{Threads: 4})
	if got != 1 {
		t.Fatalf("besteffort pod placed on node %d, want 1 (lendable siblings)", got)
	}
}

// TestScoringLendableWeight pins scoreBLendable from both sides with
// batch-only occupancy (no service-thread term). One lendable sibling on
// a half-full node must beat a quarter-full node with none (15 - 8 = 7 <
// 7.5, lost at half the weight), yet lose to an eighth-full node (7 >
// 3.75, won at double the weight).
func TestScoringLendableWeight(t *testing.T) {
	for _, tc := range []struct {
		otherBatch int
		want       int
		why        string
	}{
		{4, 0, "one lendable sibling outweighs a quarter of occupancy"},
		{2, 1, "one lendable sibling does not outweigh three eighths of occupancy"},
	} {
		sts := mkStates([2]int{0, 8}, [2]int{0, tc.otherBatch})
		sts[0].HB.Lendable = 1
		if got := placeChecked(t, ScoringPlacer{}, sts, PodRequest{Threads: 4}); got != tc.want {
			t.Fatalf("besteffort pod placed on node %d, want %d: %s", got, tc.want, tc.why)
		}
	}
}

func TestScoringAvoidsHotAndSuspectUnlessOnlyFit(t *testing.T) {
	sts := mkStates([2]int{0, 0}, [2]int{8, 0})
	sts[0].Hot = 2
	if got := placeChecked(t, ScoringPlacer{}, sts, PodRequest{Threads: 4}); got != 1 {
		t.Fatalf("besteffort pod placed on node %d, want 1 (node 0 hot)", got)
	}
	sts[0].Hot = 0
	sts[0].Suspect = true
	if got := placeChecked(t, ScoringPlacer{}, sts, PodRequest{Guaranteed: true, Threads: 4}); got != 1 {
		t.Fatalf("guaranteed pod placed on node %d, want 1 (node 0 suspect)", got)
	}
	// The penalties are cliffs, not gates: when only the hot/suspect node
	// fits, placing still beats dropping.
	sts[1].HB.ServiceThreads = 16
	if got := placeChecked(t, ScoringPlacer{}, sts, PodRequest{Threads: 4}); got != 0 {
		t.Fatalf("besteffort pod placed on node %d, want 0 (only fit)", got)
	}
}

func TestScoringCapacityGate(t *testing.T) {
	sts := mkStates([2]int{16, 0}, [2]int{14, 0})
	if got := placeChecked(t, ScoringPlacer{}, sts, PodRequest{Threads: 4}); got != -1 {
		t.Fatalf("placed an unfittable pod on node %d", got)
	}
	if got := placeChecked(t, ScoringPlacer{}, sts, PodRequest{Threads: 2}); got != 1 {
		t.Fatalf("pod placed on node %d, want 1 (only fit)", got)
	}
}

func TestScoringLowestIDTieBreak(t *testing.T) {
	sts := mkStates([2]int{4, 0}, [2]int{4, 0}, [2]int{4, 0})
	for _, req := range []PodRequest{{Threads: 4}, {Guaranteed: true, Threads: 4}} {
		if got := placeChecked(t, ScoringPlacer{}, sts, req); got != 0 {
			t.Fatalf("tie broken to node %d, want 0 (lowest ID), req %+v", got, req)
		}
	}
}

// TestVPIAwareExplicitIDTieBreak pins the bugfix: the lowest-ID rule must
// be explicit in the selection key, not an artifact of ascending scan
// order, so shard-merged candidate selection cannot silently change
// decisions. The registry here presents identical keys on every node; the
// sharded path must agree with the flat reference on node 0 at every
// shard size — including in the avoid tier (all nodes hot/suspect).
func TestVPIAwareExplicitIDTieBreak(t *testing.T) {
	mk := func() []NodeState {
		sts := mkStates([2]int{4, 0}, [2]int{4, 0}, [2]int{4, 0}, [2]int{4, 0})
		for i := range sts {
			sts[i].HB.SmoothedVPI = 7
			sts[i].HB.Lendable = 2
		}
		return sts
	}
	reqs := []PodRequest{{Threads: 4}, {Guaranteed: true, Threads: 4}}

	// Best tier: all keys equal.
	sts := mk()
	for _, req := range reqs {
		if got := placeChecked(t, VPIAware{}, sts, req); got != 0 {
			t.Fatalf("best-tier tie broken to node %d, want 0, req %+v", got, req)
		}
	}

	// Avoid tier: every node suspect (and hot, for the BestEffort path),
	// keys still equal.
	sts = mk()
	for i := range sts {
		sts[i].Suspect = true
		sts[i].Hot = 2
	}
	for _, req := range reqs {
		if got := placeChecked(t, VPIAware{}, sts, req); got != 0 {
			t.Fatalf("avoid-tier tie broken to node %d, want 0, req %+v", got, req)
		}
	}
}
