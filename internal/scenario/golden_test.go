package scenario

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden run files under testdata/golden")

// multitenantSpec is the examples/multitenant scenario: a bursty Redis
// cache and a steady RocksDB store sharing the reserved pool beside a
// continuous three-kind batch stream.
func multitenantSpec(scheduler string) Spec {
	return Spec{
		Name:      "multi-tenant",
		Machine:   MachineSpec{Cores: 16},
		Scheduler: scheduler,
		Services: []ServiceSpec{
			{
				Name: "cache", Store: "redis", Workload: "a", RPS: 9_000,
				BurstSeconds: [2]float64{3, 5}, GapSeconds: [2]float64{0.5, 1},
			},
			{Name: "catalog", Store: "rocksdb", Workload: "b", RPS: 18_000},
		},
		Batch: &BatchSpec{
			Continuous:     true,
			ConcurrentJobs: 3,
			Kinds:          []string{"kmeans", "sort", "pagerank"},
		},
		WarmupSeconds:   2,
		DurationSeconds: 10,
		Seed:            1,
	}
}

// TestRenderGolden pins Run's rendered report across commits on the
// examples/multitenant scenario under both schedulers it compares. A
// deliberate behaviour change regenerates the files with
// `go test ./internal/scenario -run TestRenderGolden -update` and says
// why in the change description.
func TestRenderGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("ten simulated seconds of two services is too slow under -race")
	}
	for _, sched := range []string{"holmes", "perfiso"} {
		sched := sched
		t.Run(sched, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(multitenantSpec(sched))
			if err != nil {
				t.Fatal(err)
			}
			got := rep.Render()
			golden := filepath.Join("testdata", "golden", "multitenant-"+sched+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/scenario -run TestRenderGolden -update` to create)", err)
			}
			if got != string(want) {
				t.Fatalf("report drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
			}
		})
	}
}
