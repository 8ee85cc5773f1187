package experiments

import (
	"strings"
	"testing"

	"github.com/holmes-colocation/holmes/internal/hpe"
	"github.com/holmes-colocation/holmes/internal/scenario"
)

// Test durations are short; the bench harness runs the full windows. The
// assertions check the paper's *shape* claims, which the short windows
// already exhibit.

const (
	testColoc = 5_000_000_000 // 5 s measured window
	testWarm  = 1_000_000_000
)

func runColoc(t *testing.T, store, wl string, setting Setting) *ColocationResult {
	t.Helper()
	cfg := DefaultColocation(store, wl, setting)
	cfg.DurationNs = testColoc
	cfg.WarmupNs = testWarm
	r, err := RunColocation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestColocationShapeRedisA(t *testing.T) {
	skipHeavyUnderRace(t)
	t.Parallel()
	alone := runColoc(t, "redis", "a", Alone)
	holmes := runColoc(t, "redis", "a", Holmes)
	perfiso := runColoc(t, "redis", "a", PerfIso)

	a, h, p := alone.Latency.Summarize(), holmes.Latency.Summarize(), perfiso.Latency.Summarize()
	if a.Count == 0 || h.Count == 0 || p.Count == 0 {
		t.Fatal("empty latency histograms")
	}
	// Principle of job co-location: Holmes close to Alone.
	if h.Mean > a.Mean*1.20 {
		t.Fatalf("Holmes mean %.0f vs Alone %.0f: more than 20%% off", h.Mean, a.Mean)
	}
	// PerfIso significantly degrades both average and tail.
	if p.Mean < h.Mean*1.2 {
		t.Fatalf("PerfIso mean %.0f vs Holmes %.0f: expected >=1.2x degradation", p.Mean, h.Mean)
	}
	if p.P99 < h.P99*1.25 {
		t.Fatalf("PerfIso p99 %.0f vs Holmes %.0f: expected >=1.25x degradation", p.P99, h.P99)
	}
	// Utilization: both co-location settings busy, Alone nearly idle.
	if alone.AvgCPUUtil > 0.08 {
		t.Fatalf("Alone utilization %.2f implausibly high", alone.AvgCPUUtil)
	}
	if holmes.AvgCPUUtil < 0.5 || perfiso.AvgCPUUtil < 0.5 {
		t.Fatalf("co-location utilization too low: holmes %.2f perfiso %.2f",
			holmes.AvgCPUUtil, perfiso.AvgCPUUtil)
	}
	// Batch throughput exists under both, none under Alone.
	if alone.CompletedJobs != 0 {
		t.Fatal("Alone completed batch jobs")
	}
	if holmes.CompletedJobs == 0 || perfiso.CompletedJobs == 0 {
		t.Fatal("no batch jobs completed under co-location")
	}
	// Holmes actually acted.
	if holmes.Deallocations == 0 {
		t.Fatal("Holmes never evicted a sibling")
	}
	// §6.6 overhead band (generous).
	if holmes.DaemonUtil <= 0 || holmes.DaemonUtil > 0.06 {
		t.Fatalf("daemon overhead %.3f outside (0, 6%%]", holmes.DaemonUtil)
	}
}

func TestSLOViolationLogic(t *testing.T) {
	skipHeavyUnderRace(t)
	t.Parallel()
	alone := runColoc(t, "redis", "b", Alone)
	perfiso := runColoc(t, "redis", "b", PerfIso)
	slo := alone.Latency.Percentile(90)
	av := alone.Latency.FractionAbove(slo)
	pv := perfiso.Latency.FractionAbove(slo)
	// By construction Alone violates ~10%.
	if av < 0.05 || av > 0.15 {
		t.Fatalf("Alone violation ratio %.2f, want ~0.10", av)
	}
	// PerfIso violates much more (paper: usually above 25%).
	if pv < av*1.5 {
		t.Fatalf("PerfIso violation %.2f vs Alone %.2f: expected much worse", pv, av)
	}
}

func TestDiskStoreScanWorkload(t *testing.T) {
	skipHeavyUnderRace(t)
	t.Parallel()
	r := runColoc(t, "rocksdb", "e", Alone)
	if r.CompletedQueries == 0 {
		t.Fatal("no scan queries completed")
	}
	s := r.Latency.Summarize()
	// Scans are far heavier than point queries.
	if s.Mean < 100_000 {
		t.Fatalf("scan mean %.0f ns implausibly fast", s.Mean)
	}
}

func TestMemcachedNoScans(t *testing.T) {
	if got := WorkloadsFor("memcached"); len(got) != 2 {
		t.Fatalf("memcached workloads = %v", got)
	}
	if got := WorkloadsFor("redis"); len(got) != 3 {
		t.Fatalf("redis workloads = %v", got)
	}
}

func TestFig3Shape(t *testing.T) {
	skipHeavyUnderRace(t)
	t.Parallel()
	r, err := RunFig3(Options{Seed: 1, Scale: 0.9375}) // 1.5 s measured
	if err != nil {
		t.Fatal(err)
	}
	alone := r.Settings[Fig3Alone]
	sep := r.Settings[Fig3CoSeparate]
	hyper := r.Settings[Fig3CoHyper]
	// Co-separate ~ Alone.
	if sep.Mean > alone.Mean*1.1 {
		t.Fatalf("co-separate mean %.0f vs alone %.0f", sep.Mean, alone.Mean)
	}
	// Co-hyper significantly prolonged (paper: 2.0x avg vs co-separate).
	if hyper.Mean < sep.Mean*1.3 {
		t.Fatalf("co-hyper mean %.0f vs co-separate %.0f: interference invisible",
			hyper.Mean, sep.Mean)
	}
	if !strings.Contains(r.Render(), "Co-hyper") {
		t.Fatal("render missing comparison")
	}
}

func TestFig5VPITracksLatency(t *testing.T) {
	skipHeavyUnderRace(t)
	t.Parallel()
	r, err := RunFig5(Options{Seed: 1, Scale: 0.75}, []string{"redis", "memcached"}) // 1.2 s measured
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 6 {
		t.Fatalf("points = %d", len(r.Points))
	}
	byStore := map[string][]Fig5Point{}
	for _, p := range r.Points {
		byStore[p.Store] = append(byStore[p.Store], p)
	}
	for store, pts := range byStore {
		// Both latency and VPI grow with the prober load...
		if pts[2].AvgRel <= pts[0].AvgRel*0.5 {
			t.Fatalf("%s: high-load latency delta %.3f not above low-load %.3f",
				store, pts[2].AvgRel, pts[0].AvgRel)
		}
		if pts[2].VPIRel <= 0 {
			t.Fatalf("%s: VPI delta %.3f not positive under high load", store, pts[2].VPIRel)
		}
		// ...and all deltas are positive under the highest load.
		if pts[2].AvgRel <= 0 || pts[2].P99Rel <= 0 {
			t.Fatalf("%s: high load did not degrade latency: %+v", store, pts[2])
		}
	}
}

func TestFig13VPIOrdering(t *testing.T) {
	skipHeavyUnderRace(t)
	t.Parallel()
	means := map[Setting]float64{}
	for _, set := range Settings() {
		cfg := DefaultColocation("rocksdb", "a", set)
		cfg.DurationNs = testColoc
		cfg.WarmupNs = testWarm
		cfg.VPISampleNs = 50_000_000
		r, err := RunColocation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.VPISeries.Len() == 0 {
			t.Fatalf("%s: empty VPI series", set)
		}
		means[set] = r.VPISeries.Mean()
	}
	// Paper: PerfIso highest, Holmes lower, Alone most stable/lowest.
	if means[PerfIso] <= means[Holmes] {
		t.Fatalf("VPI means: perfiso %.1f should exceed holmes %.1f", means[PerfIso], means[Holmes])
	}
	if means[PerfIso] <= means[Alone] {
		t.Fatalf("VPI means: perfiso %.1f should exceed alone %.1f", means[PerfIso], means[Alone])
	}
}

func TestFig14HigherEWorse(t *testing.T) {
	skipHeavyUnderRace(t)
	t.Parallel()
	// Compare E=40 against E=80 directly (the sweep's endpoints).
	run := func(e float64) float64 {
		cfg := DefaultColocation("redis", "a", Holmes)
		cfg.DurationNs = testColoc
		cfg.WarmupNs = testWarm
		cfg.Holmes = &scenario.HolmesSpec{E: e}
		r, err := RunColocation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.Latency.Summarize().Mean
	}
	at40 := run(40)
	at80 := run(80)
	if at80 < at40 {
		t.Fatalf("E=80 mean %.0f better than E=40 %.0f; sensitivity inverted", at80, at40)
	}
	if at80 < at40*1.05 {
		t.Logf("note: E sweep nearly flat (%.0f vs %.0f)", at40, at80)
	}
}

func TestTable4Ordering(t *testing.T) {
	t.Parallel()
	r, err := RunTable4(Options{Seed: 1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int64{}
	for _, row := range r.Rows {
		byName[row.Approach] = row.ConvergenceNs
	}
	if byName["Holmes"] > 500_000 {
		t.Fatalf("Holmes convergence %d ns, want microseconds", byName["Holmes"])
	}
	if byName["Caladan"] >= byName["Holmes"] {
		t.Fatalf("Caladan (%d) should beat Holmes (%d)", byName["Caladan"], byName["Holmes"])
	}
	// Five orders of magnitude against the feedback controllers.
	if byName["Heracles"] < byName["Holmes"]*10_000 {
		t.Fatalf("Heracles (%d) vs Holmes (%d): expected ~5 orders of magnitude",
			byName["Heracles"], byName["Holmes"])
	}
	if byName["Parties"] < 5e9 || byName["Parties"] > 30e9 {
		t.Fatalf("Parties convergence %.1fs outside 5-30s", float64(byName["Parties"])/1e9)
	}
	if byName["Heracles"] < 15e9 || byName["Heracles"] > 90e9 {
		t.Fatalf("Heracles convergence %.1fs outside 15-90s", float64(byName["Heracles"])/1e9)
	}
}

func TestSuiteCaches(t *testing.T) {
	s := NewSuite(2_000_000_000, 1)
	r1, err := s.Get("redis", "a", Alone)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Get("redis", "a", Alone)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("suite did not cache")
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	want := []string{"fig2", "fig3", "table1", "fig4", "fig5", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "table3", "fig14", "table4",
		"overhead", "cluster", "chaos", "traffic", "storm", "scale"}
	for _, id := range want {
		if _, ok := reg[id]; !ok {
			t.Fatalf("experiment %s missing from registry", id)
		}
	}
	ids := IDs()
	if len(ids) != len(want)+1 { // +1 for the ablations entry
		t.Fatalf("registry has %d experiments, want %d", len(ids), len(want)+1)
	}
	if ids[0] != "fig2" || ids[len(ids)-1] != "scale" {
		t.Fatalf("ordering wrong: %v", ids)
	}
}

func TestAblationCPSWeakerThanVPI(t *testing.T) {
	r := RunAblationCPS(Options{Seed: 1, Scale: 0.8}) // 120 ms per point
	byEvent := func(rows []Correlation2, e hpe.Event) float64 {
		for _, c := range rows {
			if c.Event == e {
				return c.Corr
			}
		}
		t.Fatalf("event %v missing", e)
		return 0
	}
	vpi := byEvent(r.VPI, hpe.StallsMemAny)
	cps := byEvent(r.CPS, hpe.StallsMemAny)
	if vpi < 0.9 {
		t.Fatalf("VPI correlation %.3f collapsed on the extended dataset", vpi)
	}
	if cps > vpi-0.2 {
		t.Fatalf("per-second correlation %.3f not clearly weaker than VPI %.3f", cps, vpi)
	}
	if !strings.Contains(r.Render(), "per-second") {
		t.Fatal("render incomplete")
	}
}

func TestAblationMetricUsageTriggerCostsThroughput(t *testing.T) {
	skipHeavyUnderRace(t)
	t.Parallel()
	r, err := RunAblationMetric(Options{Seed: 1, Scale: 0.5, Parallel: 1}) // 4 s measured
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	vpiRow, usageRow := r.Rows[0], r.Rows[1]
	if vpiRow.Trigger != "vpi" || usageRow.Trigger != "usage" {
		t.Fatalf("row order: %+v", r.Rows)
	}
	// The usage trigger is strictly more aggressive: at least as many
	// evictions, while the latency benefit over the VPI trigger is nil
	// (Holmes already matches Alone).
	if usageRow.Deallocations < vpiRow.Deallocations {
		t.Fatalf("usage trigger evicted less (%d) than VPI (%d)",
			usageRow.Deallocations, vpiRow.Deallocations)
	}
	if usageRow.MeanNs < vpiRow.MeanNs*0.9 {
		t.Fatalf("usage trigger should not be meaningfully faster: %.0f vs %.0f",
			usageRow.MeanNs, vpiRow.MeanNs)
	}
}

func TestAblationIntervalTradeoff(t *testing.T) {
	skipHeavyUnderRace(t)
	t.Parallel()
	r, err := RunAblationInterval(Options{Seed: 1, Scale: 0.75, Parallel: 1}) // 3 s measured
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Overhead decreases monotonically with the interval.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].DaemonUtil > r.Rows[i-1].DaemonUtil+0.001 {
			t.Fatalf("daemon overhead not decreasing with interval: %+v", r.Rows)
		}
	}
	// A 10 ms interval reacts too slowly to protect the tail as well as
	// 50 us does.
	if r.Rows[4].P99Ns < r.Rows[0].P99Ns {
		t.Logf("note: coarse interval unexpectedly matched fine interval tail")
	}
}

func TestFig2ExperimentRuns(t *testing.T) {
	r := RunFig2(Options{Seed: 1, Scale: 0.5}) // 200 ms per case
	if len(r.Cases) != 6 {
		t.Fatalf("cases = %d", len(r.Cases))
	}
	out := r.Render()
	if !strings.Contains(out, "Fig 2") || !strings.Contains(out, "CDF") {
		t.Fatal("render incomplete")
	}
	// Sibling case slower than single.
	if r.Cases[2].Summary.Mean < r.Cases[0].Summary.Mean*1.4 {
		t.Fatalf("case3/case1 = %.2f", r.Cases[2].Summary.Mean/r.Cases[0].Summary.Mean)
	}
}

func TestSweepExperiment(t *testing.T) {
	r := RunSweep(Options{Seed: 1, Scale: 0.8}) // 120 ms per point
	t1 := r.RenderTable1()
	if !strings.Contains(t1, "STALLS_MEM_ANY") || !strings.Contains(t1, "0x14a3") {
		t.Fatalf("table1 render: %s", t1)
	}
	if r.Sweep.SelectMetric() != hpe.StallsMemAny {
		t.Fatal("metric selection failed")
	}
	f4 := Fig4Result{r}.Render()
	for _, panel := range []string{"Fig 4(a)", "Fig 4(b)", "Fig 4(c)"} {
		if !strings.Contains(f4, panel) {
			t.Fatalf("fig4 render missing %s", panel)
		}
	}
}

func TestOverheadExperiment(t *testing.T) {
	skipHeavyUnderRace(t)
	t.Parallel()
	r, err := RunOverhead(Options{Seed: 1, Scale: 0.375}) // 3 s measured
	if err != nil {
		t.Fatal(err)
	}
	if r.DaemonCPUFrac <= 0 || r.DaemonCPUFrac > 0.06 {
		t.Fatalf("daemon CPU %.3f outside (0, 6%%]", r.DaemonCPUFrac)
	}
	if !strings.Contains(r.Render(), "1.3%") {
		t.Fatal("render missing paper reference")
	}
}

func TestUnknownStoreRejected(t *testing.T) {
	cfg := DefaultColocation("cassandra", "a", Alone)
	if _, err := RunColocation(cfg); err == nil {
		t.Fatal("unknown store accepted")
	}
	cfg = DefaultColocation("redis", "z", Alone)
	if _, err := RunColocation(cfg); err == nil {
		t.Fatal("unknown workload accepted")
	}
	cfg = DefaultColocation("redis", "a", Setting("bogus"))
	if _, err := RunColocation(cfg); err == nil {
		t.Fatal("unknown setting accepted")
	}
}

func TestColocationDeterminism(t *testing.T) {
	skipHeavyUnderRace(t)
	t.Parallel()
	run := func() (int64, float64) {
		cfg := DefaultColocation("redis", "a", Holmes)
		cfg.DurationNs = 2_000_000_000
		cfg.WarmupNs = 500_000_000
		r, err := RunColocation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.CompletedQueries, r.Latency.Mean()
	}
	q1, m1 := run()
	q2, m2 := run()
	if q1 != q2 || m1 != m2 {
		t.Fatalf("same seed diverged: (%d, %v) vs (%d, %v)", q1, m1, q2, m2)
	}
}

// TestChaosGracefulDegradation runs the three chaos arms at test scale
// and pins the experiment's acceptance contract: degradation holds the
// SLO within the bound while the no-degradation control pays for the
// same faults, and the degraded arm actually exercised its machinery.
func TestChaosGracefulDegradation(t *testing.T) {
	skipHeavyUnderRace(t)
	t.Parallel()
	r, err := RunChaos(Options{Seed: 42, Scale: 0.3, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !r.DegradedWithinBound() {
		t.Fatalf("degraded SLO %.4f%% exceeds bound %.4f%%",
			100*r.Degraded.SLOViolationRatio, 100*r.SLOBound())
	}
	if !r.ControlWorse() {
		t.Fatalf("control SLO %.4f%% not worse than degraded %.4f%%",
			100*r.Control.SLOViolationRatio, 100*r.Degraded.SLOViolationRatio)
	}
	if r.Degraded.SafeModeEntries == 0 && r.Degraded.RescanRepairs == 0 &&
		r.Degraded.NodesDied == 0 && r.Degraded.HeartbeatsMissed == 0 {
		t.Fatal("degraded arm shows no fault activity — schedule never fired")
	}
	if r.Control.SafeModeEntries != 0 || r.Control.RescanRepairs != 0 {
		t.Fatal("control arm ran degradation machinery despite DisableDegradation")
	}
	if !r.AlertsAsExpected() {
		t.Fatalf("burn-rate alerts wrong: degraded %d page (want >0), clean %d page (want 0)",
			r.Degraded.PageAlerts, r.Clean.PageAlerts)
	}
	out := r.Render()
	for _, want := range []string{"graceful degradation:", "no-degradation control:",
		"faults vs fault-free:", "burn-rate alerts:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FLIGHT RECORDER") {
		t.Fatal("PASS verdict dumped the flight recorder")
	}

	// Force a FAIL verdict on a copy: the render must append a readable
	// flight-recorder bundle from the degraded arm's plane.
	bad := *r
	worse := *r.Degraded
	worse.SLOViolationRatio = 1.0
	bad.Degraded = &worse
	failOut := bad.Render()
	for _, want := range []string{"==== FLIGHT RECORDER ====", "reason: chaos verdict FAIL",
		"-- alerts", "-- last", "==== END FLIGHT RECORDER ====", "availability/page"} {
		if !strings.Contains(failOut, want) {
			t.Fatalf("FAIL render missing %q", want)
		}
	}
}
