package equiv

import (
	"strings"
	"testing"
)

// TestIntervalEquivalence is the tentpole contract: for every scenario
// in the standard table, a run with interval batching produces output
// bit-identical to the same run stepped tick by tick — same clock, same
// counters (including RNG-driven attribution noise), same completion
// timestamps, same kernel accounting, same telemetry dump.
func TestIntervalEquivalence(t *testing.T) {
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			ref, batched, diff := Compare(s)
			if ref.BatchedTicks != 0 {
				t.Fatalf("reference run used the batched path (%d ticks)", ref.BatchedTicks)
			}
			if batched.BatchedTicks == 0 {
				t.Fatalf("batched run never batched; scenario exercises nothing")
			}
			if diff != "" {
				t.Errorf("batched run diverged from per-tick reference:\n%s", diff)
			}
			t.Logf("batched %d of %d ticks (%.1f%%)",
				batched.BatchedTicks, batched.TickCount,
				100*float64(batched.BatchedTicks)/float64(batched.TickCount))
		})
	}
}

// TestRunIsDeterministic guards the harness itself: two identical runs
// on the same path must snapshot identically, otherwise the differential
// comparison proves nothing.
func TestRunIsDeterministic(t *testing.T) {
	for _, batching := range []bool{false, true} {
		s := Scenarios()[0]
		a, b := Run(s, batching), Run(s, batching)
		if d := Diff(a, b); d != "" {
			t.Errorf("batching=%v: repeated run diverged:\n%s", batching, d)
		}
	}
}

// TestDiffReportsExecCounts checks that the per-CPU exec counts take part
// in the comparison: the monitor's sample skip reads them, so batching on
// and off must agree on them as strictly as on the counters.
func TestDiffReportsExecCounts(t *testing.T) {
	a := Run(Scenarios()[0], true)
	b := a
	b.ExecCounts = append([]uint64(nil), a.ExecCounts...)
	b.ExecCounts[0]++
	if d := Diff(a, b); !strings.Contains(d, "cpu exec counts[0]") {
		t.Fatalf("exec count divergence not reported; diff:\n%s", d)
	}
}
