package core

import (
	"testing"

	"github.com/holmes-colocation/holmes/internal/cgroupfs"
	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/workload"
)

func newEnv() (*machine.Machine, *kernel.Kernel, *cgroupfs.FS) {
	cfg := machine.DefaultConfig()
	cfg.Topology = cpuid.Topology{Sockets: 1, Cores: 8} // 16 logical CPUs
	m := machine.New(cfg)
	return m, kernel.New(m), cgroupfs.NewFS()
}

func testDaemonConfig() Config {
	cfg := DefaultConfig()
	cfg.ReservedCPUs = 2
	cfg.SNs = 5_000_000 // 5 ms quiet period for fast tests
	return cfg
}

// chain keeps a thread busy with identical work items indefinitely.
func chain(th *kernel.Thread, c workload.Cost) {
	var push func(int64)
	push = func(int64) {
		th.HW.Push(workload.Item{Cost: c, OnComplete: push})
	}
	push(0)
}

// lcCost is a service-like mix calibrated so the VPI of the serving CPU
// sits below E=40 when quiet and above it under sibling interference:
// 100 DRAM loads (17,000 stall cycles quiet, ~28,000 interfered) over
// 566 memory instructions gives VPI ~30 quiet, ~50 interfered.
func lcCost() workload.Cost {
	c := workload.MemRead(workload.DRAM, 100)
	c.Add(workload.MemRead(workload.L1, 466))
	c.Add(workload.Compute(2000))
	return c
}

// batchCost is DRAM-streaming batch work.
func batchCost() workload.Cost {
	c := workload.MemRead(workload.DRAM, 4000)
	c.Add(workload.Compute(100_000))
	return c
}

func TestConfigValidate(t *testing.T) {
	if DefaultConfig().Validate() != nil {
		t.Fatal("default config invalid")
	}
	for _, mut := range []func(*Config){
		func(c *Config) { c.ReservedCPUs = 0 },
		func(c *Config) { c.E = 0 },
		func(c *Config) { c.IntervalNs = 0 },
		func(c *Config) { c.SNs = -1 },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		if cfg.Validate() == nil {
			t.Fatalf("mutation %+v accepted", cfg)
		}
	}
}

func TestStartReservesCPUs(t *testing.T) {
	_, k, fs := newEnv()
	d, err := Start(k, fs, testDaemonConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	r := d.ReservedCPUs()
	if !r.Equal(cpuid.MaskOf(0, 1)) {
		t.Fatalf("reserved = %v", r.CPUs())
	}
	// Batch mask excludes reserved but initially includes their siblings.
	bm := d.BatchMask()
	if bm.Has(0) || bm.Has(1) {
		t.Fatal("batch mask includes reserved CPUs")
	}
	if !bm.Has(8) || !bm.Has(9) {
		t.Fatal("batch mask should initially include LC siblings")
	}
}

func TestStartRejectsOversizedReservation(t *testing.T) {
	_, k, fs := newEnv()
	cfg := testDaemonConfig()
	cfg.ReservedCPUs = 9 // more than the 8 physical cores
	if _, err := Start(k, fs, cfg); err == nil {
		t.Fatal("oversized reservation accepted")
	}
}

func TestRegisterLCPinsService(t *testing.T) {
	_, k, fs := newEnv()
	d, _ := Start(k, fs, testDaemonConfig())
	defer d.Stop()
	svc := k.Spawn("redis", 2)
	if err := d.RegisterLC(svc.PID); err != nil {
		t.Fatal(err)
	}
	for _, th := range svc.Threads() {
		if !th.Affinity().Equal(d.ReservedCPUs()) {
			t.Fatalf("LC thread affinity = %v", th.Affinity())
		}
	}
	if err := d.RegisterLC(99999); err == nil {
		t.Fatal("registering unknown PID should fail")
	}
}

func TestBatchDiscoveryThroughCgroups(t *testing.T) {
	_, k, fs := newEnv()
	d, _ := Start(k, fs, testDaemonConfig())
	defer d.Stop()
	proc := k.Spawn("kmeans", 2)
	g, _ := fs.Mkdir("/yarn/job_1/container_0")
	g.AddPid(proc.PID)
	// Discovery applies the batch mask immediately.
	for _, th := range proc.Threads() {
		if th.Affinity().Has(0) || th.Affinity().Has(1) {
			t.Fatalf("batch thread allowed on reserved CPUs: %v", th.Affinity())
		}
	}
}

func TestNonYarnCgroupsIgnored(t *testing.T) {
	_, k, fs := newEnv()
	d, _ := Start(k, fs, testDaemonConfig())
	defer d.Stop()
	proc := k.Spawn("other", 1)
	g, _ := fs.Mkdir("/system/foo")
	g.AddPid(proc.PID)
	full := cpuid.FullMask(16)
	if !proc.Threads()[0].Affinity().Equal(full) {
		t.Fatal("non-yarn process was touched")
	}
}

// startInterferenceScenario builds: LC service on reserved CPUs serving
// continuously, batch job discovered via cgroups running everywhere the
// batch mask allows.
func startInterferenceScenario(t *testing.T) (*machine.Machine, *kernel.Kernel, *Daemon, *kernel.Process) {
	t.Helper()
	m, k, fs := newEnv()
	d, err := Start(k, fs, testDaemonConfig())
	if err != nil {
		t.Fatal(err)
	}
	svc := k.Spawn("redis", 2)
	if err := d.RegisterLC(svc.PID); err != nil {
		t.Fatal(err)
	}
	for _, th := range svc.Threads() {
		chain(th, lcCost())
	}
	batch := k.Spawn("kmeans", 8)
	g, _ := fs.Mkdir("/yarn/job_1/container_0")
	g.AddPid(batch.PID)
	for _, th := range batch.Threads() {
		chain(th, batchCost())
	}
	return m, k, d, batch
}

func TestInterferenceTriggersDeallocation(t *testing.T) {
	m, _, d, _ := startInterferenceScenario(t)
	defer d.Stop()
	m.RunFor(20_000_000) // 20 ms
	_, dealloc, _, _ := d.Stats()
	if dealloc == 0 {
		t.Fatal("no sibling deallocation despite heavy interference")
	}
	// Either a sibling is blocked right now, or we are inside a probe
	// window (S elapsed quietly, sibling re-offered, eviction imminent);
	// in the latter case a reallocation must have been recorded.
	bm := d.BatchMask()
	blocked := 0
	for _, lc := range d.ReservedCPUs().CPUs() {
		if !bm.Has(m.Sibling(lc)) {
			blocked++
		}
	}
	_, _, realloc, _ := d.Stats()
	if blocked == 0 && realloc == 0 {
		t.Fatal("no LC sibling blocked and no probe cycle recorded")
	}
}

func TestDeallocationIsFast(t *testing.T) {
	// Holmes's convergence claim: reaction within ~an invocation interval
	// after interference appears, i.e. tens to hundreds of microseconds.
	m, k, fs := newEnv()
	cfg := testDaemonConfig()
	d, _ := Start(k, fs, cfg)
	defer d.Stop()
	svc := k.Spawn("redis", 1)
	_ = d.RegisterLC(svc.PID)
	chain(svc.Threads()[0], lcCost())
	m.RunFor(10_000_000) // LC runs quietly; no interference yet
	if d.LastDeallocNs() >= 0 {
		t.Fatal("deallocated without interference")
	}
	// Interference starts now.
	start := m.Now()
	batch := k.Spawn("kmeans", 8)
	g, _ := fs.Mkdir("/yarn/job_9/container_0")
	g.AddPid(batch.PID)
	for _, th := range batch.Threads() {
		chain(th, batchCost())
	}
	m.RunFor(5_000_000)
	if d.LastDeallocNs() < 0 {
		t.Fatal("never deallocated")
	}
	reaction := d.LastDeallocNs() - start
	if reaction > 10*cfg.IntervalNs {
		t.Fatalf("reaction took %d ns, want within ~%d", reaction, 2*cfg.IntervalNs)
	}
}

func TestReallocationAfterQuietPeriod(t *testing.T) {
	// A finite LC burst: interference evicts the sibling; once the burst
	// drains, VPI falls to zero and after S the sibling is re-offered.
	m, k, fs := newEnv()
	cfg := testDaemonConfig() // S = 5 ms
	d, _ := Start(k, fs, cfg)
	defer d.Stop()
	svc := k.Spawn("redis", 1)
	_ = d.RegisterLC(svc.PID)
	// A burst of ~10 ms of work, not an endless chain.
	for i := 0; i < 1200; i++ {
		svc.Threads()[0].HW.Push(workload.Work(lcCost()))
	}
	batch := k.Spawn("kmeans", 8)
	g, _ := fs.Mkdir("/yarn/job_1/container_0")
	g.AddPid(batch.PID)
	for _, th := range batch.Threads() {
		chain(th, batchCost())
	}
	m.RunFor(30_000_000)
	if _, dealloc, _, _ := d.Stats(); dealloc == 0 {
		t.Fatal("setup: no deallocation during the burst")
	}
	// Burst over + quiet period elapsed: siblings must be back.
	m.RunFor(30_000_000)
	_, _, realloc, _ := d.Stats()
	if realloc == 0 {
		t.Fatal("sibling never re-offered after the quiet period")
	}
	bm := d.BatchMask()
	for _, lc := range d.ReservedCPUs().CPUs() {
		if !bm.Has(m.Sibling(lc)) {
			t.Fatalf("sibling of %d still blocked after quiet period", lc)
		}
	}
}

func TestLCExitRestoresSiblings(t *testing.T) {
	m, k, fs := newEnv()
	d, _ := Start(k, fs, testDaemonConfig())
	defer d.Stop()
	svc := k.Spawn("redis", 2)
	_ = d.RegisterLC(svc.PID)
	for _, th := range svc.Threads() {
		chain(th, lcCost())
	}
	batch := k.Spawn("kmeans", 8)
	g, _ := fs.Mkdir("/yarn/job_1/container_0")
	g.AddPid(batch.PID)
	for _, th := range batch.Threads() {
		chain(th, batchCost())
	}
	m.RunFor(20_000_000)
	if _, dealloc, _, _ := d.Stats(); dealloc == 0 {
		t.Fatal("setup: no eviction ever happened")
	}
	svc.Exit()
	m.RunFor(1_000_000)
	// After the LC exit every sibling is re-offered: the batch mask is
	// everything except the (possibly expanded) reserved pool.
	bm := d.BatchMask()
	want := cpuid.FullMask(16).Subtract(d.ReservedCPUs())
	if !bm.Equal(want) {
		t.Fatalf("after LC exit batch mask = %v, want %v", bm.CPUs(), want.CPUs())
	}
	for _, th := range batch.Threads() {
		if !th.Affinity().Equal(bm) {
			t.Fatalf("container affinity not refreshed: %v", th.Affinity())
		}
	}
}

func TestReservedPoolExpansion(t *testing.T) {
	m, k, fs := newEnv()
	d, _ := Start(k, fs, testDaemonConfig())
	defer d.Stop()
	// A service with more hot threads than reserved CPUs saturates them.
	svc := k.Spawn("redis", 4)
	_ = d.RegisterLC(svc.PID)
	for _, th := range svc.Threads() {
		chain(th, lcCost())
	}
	m.RunFor(50_000_000)
	_, _, _, expansions := d.Stats()
	if expansions == 0 {
		t.Fatal("reserved pool never expanded despite saturation")
	}
	r := d.ReservedCPUs()
	if r.Count() <= 2 {
		t.Fatalf("reserved = %v", r.CPUs())
	}
	// Expansion CPUs must not be siblings of the original LC CPUs.
	if r.Has(8) || r.Has(9) {
		t.Fatalf("expansion chose an LC sibling: %v", r.CPUs())
	}
	// The service's affinity follows the expanded pool.
	for _, th := range svc.Threads() {
		if !th.Affinity().Equal(r) {
			t.Fatalf("service affinity %v != reserved %v", th.Affinity(), r.CPUs())
		}
	}
}

func TestDaemonOverheadModeling(t *testing.T) {
	m, k, fs := newEnv()
	cfg := testDaemonConfig()
	cfg.DaemonCPU = 15
	d, _ := Start(k, fs, cfg)
	defer d.Stop()
	m.RunFor(100_000_000) // 100 ms
	busy := m.BusyCycles(15)
	frac := busy / (m.Config().FreqGHz * 100_000_000)
	// Paper: 1.3% - 3% CPU. Allow a wide band around it.
	if frac < 0.003 || frac > 0.06 {
		t.Fatalf("daemon overhead = %.2f%%, want ~1-3%%", frac*100)
	}
}

func TestStopHaltsDaemon(t *testing.T) {
	m, k, fs := newEnv()
	d, _ := Start(k, fs, testDaemonConfig())
	m.RunFor(5_000_000)
	inv1, _, _, _ := d.Stats()
	if inv1 == 0 {
		t.Fatal("daemon never ran")
	}
	d.Stop()
	m.RunFor(5_000_000)
	inv2, _, _, _ := d.Stats()
	if inv2 != inv1 {
		t.Fatalf("daemon kept running after Stop: %d -> %d", inv1, inv2)
	}
	d.Stop() // idempotent
}

func TestMonitorSamples(t *testing.T) {
	m, k, _ := newEnv()
	mon, err := NewMonitor(m, testDaemonConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := k.Spawn("w", 1)
	_ = k.SetAffinity(p.Threads()[0].TID, cpuid.MaskOf(3))
	chain(p.Threads()[0], lcCost())
	m.RunFor(1_000_000)
	mon.Sample(m.Now())
	if mon.VPI(3) <= 0 {
		t.Fatal("no VPI on the busy CPU")
	}
	if mon.Usage(3) < 0.9 {
		t.Fatalf("usage = %v", mon.Usage(3))
	}
	if mon.VPI(4) != 0 || mon.Usage(4) != 0 {
		t.Fatal("idle CPU shows activity")
	}
	// Core aggregation: core 3 hosts logical CPUs 3 and 11.
	if mon.CoreVPI(3) != mon.VPI(3)+mon.VPI(11) {
		t.Fatal("core VPI aggregation wrong")
	}
	if mon.CoreUsage(3) < 0.9 {
		t.Fatal("core usage aggregation wrong")
	}
}

func TestQuietVPIBelowThresholdInterferedAbove(t *testing.T) {
	// Calibration guard: the lcCost mix must straddle E=40 exactly as
	// designed, quiet below and interfered above.
	m, k, _ := newEnv()
	mon, _ := NewMonitor(m, testDaemonConfig())
	svc := k.Spawn("lc", 1)
	_ = k.SetAffinity(svc.Threads()[0].TID, cpuid.MaskOf(0))
	chain(svc.Threads()[0], lcCost())
	m.RunFor(5_000_000)
	mon.Sample(m.Now())
	quiet := mon.VPI(0)
	agg := k.Spawn("agg", 1)
	_ = k.SetAffinity(agg.Threads()[0].TID, cpuid.MaskOf(8)) // sibling of 0
	chain(agg.Threads()[0], batchCost())
	m.RunFor(5_000_000)
	mon.Sample(m.Now())
	noisy := mon.VPI(0)
	if quiet >= 40 {
		t.Fatalf("quiet VPI = %v, must be below E=40", quiet)
	}
	if noisy < 40 {
		t.Fatalf("interfered VPI = %v, must exceed E=40 (quiet was %v)", noisy, quiet)
	}
}

func TestUsageTriggerEvictsComputeOnlyService(t *testing.T) {
	// The ablation's defining behaviour: a purely compute-bound LC
	// service (no memory sensitivity) still triggers eviction under the
	// usage metric, but not under the VPI metric.
	run := func(metric Metric) int64 {
		m, k, fs := newEnv()
		cfg := testDaemonConfig()
		cfg.TriggerMetric = metric
		d, _ := Start(k, fs, cfg)
		defer d.Stop()
		svc := k.Spawn("compute-svc", 2)
		_ = d.RegisterLC(svc.PID)
		for _, th := range svc.Threads() {
			chain(th, workload.Compute(50_000)) // pure compute: VPI = 0
		}
		batchProc := k.Spawn("kmeans", 8)
		g, _ := fs.Mkdir("/yarn/job_1/container_0")
		g.AddPid(batchProc.PID)
		for _, th := range batchProc.Threads() {
			chain(th, batchCost())
		}
		m.RunFor(20_000_000)
		_, dealloc, _, _ := d.Stats()
		return dealloc
	}
	if got := run(MetricVPI); got != 0 {
		t.Fatalf("VPI trigger evicted %d times for a compute-only service", got)
	}
	if got := run(MetricUsage); got == 0 {
		t.Fatal("usage trigger never evicted despite busy LC CPUs")
	}
}

// TestUsageTriggerThreshold pins usageEvictThreshold from both sides: an
// LC CPU busy for 45% of every invocation interval keeps its sibling
// under the usage trigger, one busy for 55% loses it.
func TestUsageTriggerThreshold(t *testing.T) {
	for _, tc := range []struct {
		busy  float64
		evict bool
	}{{0.45, false}, {0.55, true}} {
		m, k, fs := newEnv()
		cfg := testDaemonConfig()
		cfg.ReservedCPUs = 1
		cfg.TriggerMetric = MetricUsage
		d, err := Start(k, fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		svc := k.Spawn("lc", 1)
		if err := d.RegisterLC(svc.PID); err != nil {
			t.Fatal(err)
		}
		// One work item of busy x interval every interval: any
		// interval-long sample window holds exactly that busy share.
		th, period := svc.Threads()[0], cfg.IntervalNs
		cycles := tc.busy * m.Config().FreqGHz * float64(period)
		var push func(int64)
		push = func(now int64) {
			th.HW.Push(workload.Work(workload.Compute(cycles)))
			m.Schedule(now+period, push)
		}
		push(m.Now())
		m.RunFor(20_000_000)
		lc := d.ReservedCPUs().CPUs()[0]
		_, dealloc, _, _ := d.Stats()
		if evicted := dealloc > 0; evicted != tc.evict {
			t.Fatalf("busy %.2f (sampled usage %.3f): evicted = %v, want %v",
				tc.busy, d.Monitor().Usage(lc), evicted, tc.evict)
		}
		if kept := d.BatchMask().Has(m.Sibling(lc)); kept == tc.evict {
			t.Fatalf("busy %.2f: sibling in batch mask = %v, want %v", tc.busy, kept, !tc.evict)
		}
		d.Stop()
	}
}
