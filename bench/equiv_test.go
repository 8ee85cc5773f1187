package main

import (
	"testing"

	"github.com/holmes-colocation/holmes/internal/experiments"
)

// TestNodeColocationMatchesRunColocation pins that the harness's composed
// node, advanced in 10 ms chunks, is the program path
// experiments.RunColocation runs: same p99, completed queries and jobs.
func TestNodeColocationMatchesRunColocation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 5 s simulations")
	}
	const warmupNs, measureNs = 1_000_000_000, 4_000_000_000
	got, err := nodeColocation(newRepState(1, 1, false), warmupNs, measureNs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.DefaultColocation("redis", "a", experiments.Holmes)
	cfg.WarmupNs, cfg.DurationNs, cfg.Seed = warmupNs, measureNs, 1
	want, err := experiments.RunColocation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantP99 := want.Latency.Summarize().P99
	if got.p99Ns != wantP99 || got.queries != want.CompletedQueries || got.jobs != want.CompletedJobs {
		t.Fatalf("harness p99 %v ns, %d queries, %d jobs; RunColocation p99 %v ns, %d queries, %d jobs",
			got.p99Ns, got.queries, got.jobs, wantP99, want.CompletedQueries, want.CompletedJobs)
	}
	if got.queries == 0 {
		t.Fatal("no queries completed")
	}
}
