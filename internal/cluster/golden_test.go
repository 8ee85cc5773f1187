package cluster

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/holmes-colocation/holmes/internal/faults"
)

var update = flag.Bool("update", false, "rewrite the golden run files under testdata/golden")

// goldenText is what a golden file pins for one run: the rendered report
// plus the conservation and control-plane counters Render omits.
func goldenText(res *Result) string {
	return res.Render() + fmt.Sprintf(
		"counters: arrived=%d done=%d running=%d queued=%d failed=%d lod_skips=%d evictions=%d requeues=%d\n",
		res.BatchArrived, res.BatchDoneTotal, res.BatchRunning, res.BatchQueued, res.BatchFailed,
		res.LoDSkips, res.Evictions, res.Requeues)
}

// TestRunGolden pins Run's output across commits, not just across modes
// within one commit: every placer, the LoD fast-forward path, node chaos
// and the resilient traffic plane under a crash each render exactly what
// testdata/golden holds. A deliberate behaviour change regenerates them
// with `go test ./internal/cluster -run TestRunGolden -update` and says
// why in the change description.
func TestRunGolden(t *testing.T) {
	placerSpec := func(placer string) func() Spec {
		return func() Spec {
			s := testSpec()
			s.Placer = placer
			return s
		}
	}
	cases := []struct {
		name string
		spec func() Spec
	}{
		{"binpack", placerSpec(PlacerBinPack)},
		{"vpi", placerSpec(PlacerVPI)},
		{"score", placerSpec(PlacerScore)},
		{"lod-score", func() Spec {
			s := lodSpec()
			s.Placer = PlacerScore
			return s
		}},
		{"chaos", func() Spec {
			s := testSpec()
			sched := faults.DefaultSchedule()
			s.Chaos = &sched
			return s
		}},
		{"traffic-resilient-crash", resilientFaultSpec},
		// The eviction and failover paths: every node reads hot, and a
		// service node crashes and later reboots, so checkpointed
		// requeues, service failover and the reboot reset all render.
		{"evict", func() Spec {
			s := testSpec()
			s.EvictVPI = 0.001
			s.HotRounds = 1
			s.MaxEvictions = 1
			s.DurationSeconds = 1.2
			return s
		}},
		{"failover-reboot", func() Spec {
			s := testSpec()
			s.DurationSeconds = 1.6
			s.Chaos = &faults.Spec{Nodes: faults.NodeSpec{
				Crashes: []faults.NodeCrash{{Node: 0, Round: 2, DownRounds: 12}},
			}}
			return s
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(tc.spec(), RunOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			got := goldenText(res)
			golden := filepath.Join("testdata", "golden", tc.name+".txt")
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
				t.Fatalf("%v (run `go test ./internal/cluster -run TestRunGolden -update` to create)", err)
			}
			if got != string(want) {
				t.Fatalf("run drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
			}
		})
	}
}
