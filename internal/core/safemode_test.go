package core

import (
	"testing"

	"github.com/holmes-colocation/holmes/internal/cpuid"
)

// scriptedCounterFault zeroes every VPI reading inside [from, until) of
// simulated time (until 0 = forever) — the "counters went dark" fault,
// scripted so tests control exactly when the stream dies and recovers.
type scriptedCounterFault struct {
	from, until int64
}

func (s *scriptedCounterFault) FilterVPI(cpu int, nowNs int64, v float64) float64 {
	if nowNs >= s.from && (s.until == 0 || nowNs < s.until) {
		return 0
	}
	return v
}

// dropAllCgroupEvents loses every cgroup watch event.
type dropAllCgroupEvents struct{}

func (dropAllCgroupEvents) Deliveries() int { return 0 }

func watchdogConfig() Config {
	cfg := testDaemonConfig()
	cfg.WatchdogWindow = 64
	return cfg
}

func TestWatchdogDisabledByDefault(t *testing.T) {
	if DefaultConfig().WatchdogWindow != 0 || DefaultConfig().RescanIntervalNs != 0 {
		t.Fatal("degradation knobs must default off: single-machine behavior is pinned by the paper experiments")
	}
	for _, mut := range []func(*Config){
		func(c *Config) { c.WatchdogWindow = -1 },
		func(c *Config) { c.RescanIntervalNs = -1 },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		if cfg.Validate() == nil {
			t.Fatalf("invalid watchdog config accepted: %+v", cfg)
		}
	}
}

func TestWatchdogEntersSafeModeOnDeadCounters(t *testing.T) {
	m, k, fs := newEnv()
	cfg := watchdogConfig()
	fault := &scriptedCounterFault{from: 5_000_000} // counters die at 5 ms
	cfg.CounterFault = fault
	d, err := Start(k, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	svc := k.Spawn("redis", 2)
	if err := d.RegisterLC(svc.PID); err != nil {
		t.Fatal(err)
	}
	for _, th := range svc.Threads() {
		chain(th, lcCost())
	}
	m.RunFor(4_000_000)
	if d.SafeMode() {
		t.Fatal("safe mode entered while counters were healthy")
	}
	m.RunFor(16_000_000) // busy LC CPUs now read exactly 0 — implausible
	if !d.SafeMode() {
		t.Fatal("watchdog never entered safe mode on a dead counter stream")
	}
	entries, exits := d.SafeModeTransitions()
	if entries != 1 || exits != 0 {
		t.Fatalf("transitions = (%d, %d), want (1, 0)", entries, exits)
	}
	// The static partition: every LC sibling withheld from batch.
	bm := d.BatchMask()
	for _, lc := range d.ReservedCPUs().CPUs() {
		if bm.Has(m.Sibling(lc)) {
			t.Fatalf("safe mode left sibling of CPU %d lendable", lc)
		}
	}
	// Defensive withdrawals are not Algorithm 2 evictions.
	if _, dealloc, _, _ := d.Stats(); dealloc != 0 {
		t.Fatalf("safe mode counted %d deallocations", dealloc)
	}
}

func TestSafeModeExitsWhenCountersRecover(t *testing.T) {
	m, k, fs := newEnv()
	cfg := watchdogConfig()
	cfg.CounterFault = &scriptedCounterFault{from: 5_000_000, until: 15_000_000}
	d, err := Start(k, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	svc := k.Spawn("redis", 2)
	if err := d.RegisterLC(svc.PID); err != nil {
		t.Fatal(err)
	}
	for _, th := range svc.Threads() {
		chain(th, lcCost())
	}
	m.RunFor(40_000_000)
	if d.SafeMode() {
		t.Fatal("still in safe mode 25 ms after the counters recovered")
	}
	entries, exits := d.SafeModeTransitions()
	if entries != 1 || exits != 1 {
		t.Fatalf("transitions = (%d, %d), want (1, 1)", entries, exits)
	}
	// Exit is conservative: siblings return via the normal SNs quiet
	// period, which (5 ms here) has long since elapsed with a quiet VPI.
	bm := d.BatchMask()
	for _, lc := range d.ReservedCPUs().CPUs() {
		if !bm.Has(m.Sibling(lc)) {
			t.Fatalf("sibling of CPU %d still withheld after recovery + quiet period", lc)
		}
	}
}

func TestWatchdogQuietOnHealthyStream(t *testing.T) {
	// Real interference must not look like a counter fault: the stream is
	// noisy and positive, so the watchdog stays silent while Algorithm 2
	// does its normal work.
	m, k, fs := newEnv()
	cfg := watchdogConfig()
	d, err := Start(k, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
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
	m.RunFor(30_000_000)
	if entries, _ := d.SafeModeTransitions(); entries != 0 {
		t.Fatalf("watchdog fired %d times on a healthy (if interfered) stream", entries)
	}
	if _, dealloc, _, _ := d.Stats(); dealloc == 0 {
		t.Fatal("scenario never exercised Algorithm 2 (no interference eviction)")
	}
}

func TestRescanRepairsDroppedCreationEvent(t *testing.T) {
	m, k, fs := newEnv()
	cfg := testDaemonConfig()
	cfg.CgroupFault = dropAllCgroupEvents{}
	cfg.RescanIntervalNs = 2_000_000 // 2 ms
	d, err := Start(k, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	proc := k.Spawn("kmeans", 2)
	g, _ := fs.Mkdir("/yarn/job_1/container_0")
	g.AddPid(proc.PID)
	// The creation event was dropped: the daemon must not know the
	// container yet, and the process still runs with its full mask.
	if d.Containers() != 0 {
		t.Fatal("container discovered despite a dropped event")
	}
	full := cpuid.FullMask(16)
	if !proc.Threads()[0].Affinity().Equal(full) {
		t.Fatal("affinity changed before any discovery path ran")
	}
	m.RunFor(3_000_000) // one re-scan interval later
	if d.Containers() != 1 {
		t.Fatalf("re-scan tracked %d containers, want 1", d.Containers())
	}
	if _, repairs := d.RescanStats(); repairs == 0 {
		t.Fatal("repair not counted")
	}
	for _, th := range proc.Threads() {
		if th.Affinity().Has(0) || th.Affinity().Has(1) {
			t.Fatalf("re-scan left batch on reserved CPUs: %v", th.Affinity())
		}
	}
	// The reverse direction: the container exits and its group is removed,
	// but the removal event is dropped too. The next re-scan must notice.
	proc.Exit()
	g.RemovePid(proc.PID)
	if err := fs.Rmdir("/yarn/job_1/container_0"); err != nil {
		t.Fatal(err)
	}
	if d.Containers() != 1 {
		t.Fatal("removal processed despite a dropped event")
	}
	m.RunFor(3_000_000)
	if d.Containers() != 0 {
		t.Fatalf("re-scan still tracks %d containers after removal", d.Containers())
	}
}

func TestDuplicatedCgroupEventsAreIdempotent(t *testing.T) {
	m, k, fs := newEnv()
	cfg := testDaemonConfig()
	cfg.CgroupFault = duplicateAllCgroupEvents{}
	d, err := Start(k, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	proc := k.Spawn("kmeans", 2)
	g, _ := fs.Mkdir("/yarn/job_1/container_0")
	g.AddPid(proc.PID)
	if d.Containers() != 1 {
		t.Fatalf("duplicate delivery tracked %d containers, want 1", d.Containers())
	}
	m.RunFor(1_000_000)
	proc.Exit()
	g.RemovePid(proc.PID)
	if err := fs.Rmdir("/yarn/job_1/container_0"); err != nil {
		t.Fatal(err)
	}
	if d.Containers() != 0 {
		t.Fatal("duplicated removal left the container tracked")
	}
}

// duplicateAllCgroupEvents delivers every event twice.
type duplicateAllCgroupEvents struct{}

func (duplicateAllCgroupEvents) Deliveries() int { return 2 }
