package isolation

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
	cfg.Topology = cpuid.Topology{Sockets: 1, Cores: 8}
	m := machine.New(cfg)
	return m, kernel.New(m), cgroupfs.NewFS()
}

func chain(th *kernel.Thread, c workload.Cost) {
	var push func(int64)
	push = func(int64) {
		th.HW.Push(workload.Item{Cost: c, OnComplete: push})
	}
	push(0)
}

func busyCost() workload.Cost {
	c := workload.MemRead(workload.DRAM, 1000)
	c.Add(workload.Compute(100_000))
	return c
}

func TestPerfIsoLeavesSiblingsOpen(t *testing.T) {
	m, k, fs := newEnv()
	cfg := DefaultPerfIsoConfig()
	cfg.ReservedCPUs = 2
	p, err := StartPerfIso(k, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	svc := k.Spawn("redis", 2)
	if err := p.RegisterLC(svc.PID); err != nil {
		t.Fatal(err)
	}
	for _, th := range svc.Threads() {
		chain(th, busyCost())
	}

	batch := k.Spawn("kmeans", 16)
	g, _ := fs.Mkdir("/yarn/job_1/container_0")
	g.AddPid(batch.PID)
	for _, th := range batch.Threads() {
		chain(th, busyCost())
	}
	m.RunFor(20_000_000)

	// The defining HT-obliviousness: siblings of the LC CPUs (8 and 9)
	// are available to batch and actually used.
	bm := p.BatchMask()
	if !bm.Has(m.Sibling(0)) && !bm.Has(m.Sibling(1)) {
		t.Fatal("PerfIso blocked LC siblings; it must be HT-oblivious")
	}
	if m.BusyCycles(m.Sibling(0)) == 0 && m.BusyCycles(m.Sibling(1)) == 0 {
		t.Fatal("batch never ran on LC siblings under PerfIso")
	}
	// But reserved CPUs are never given to batch.
	if bm.Has(0) || bm.Has(1) {
		t.Fatal("batch allowed on reserved CPUs")
	}
}

func TestPerfIsoMaintainsIdleBuffer(t *testing.T) {
	m, k, fs := newEnv()
	cfg := DefaultPerfIsoConfig()
	cfg.ReservedCPUs = 2
	p, _ := StartPerfIso(k, fs, cfg)
	defer p.Stop()

	batch := k.Spawn("kmeans", 16)
	g, _ := fs.Mkdir("/yarn/job_1/container_0")
	g.AddPid(batch.PID)
	for _, th := range batch.Threads() {
		chain(th, busyCost())
	}
	m.RunFor(50_000_000)
	// With saturating batch load, PerfIso must have withdrawn CPUs into
	// the buffer.
	if p.Adjustments() == 0 {
		t.Fatal("PerfIso never adjusted")
	}
	withheld := cpuid.FullMask(16).Subtract(p.BatchMask()).Subtract(p.ReservedCPUs())
	if withheld.Count() < perfIsoBufferCPUs {
		t.Fatalf("idle buffer = %v, want >= %d CPUs", withheld.CPUs(), perfIsoBufferCPUs)
	}
}

func TestPerfIsoConfigValidation(t *testing.T) {
	_, k, fs := newEnv()
	if _, err := StartPerfIso(k, fs, PerfIsoConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

// feedbackEnv builds an LC + batch scenario driven by a synthetic latency
// probe the test controls.
func feedbackEnv(t *testing.T) (*machine.Machine, *kernel.Kernel, []*kernel.Process, cpuid.Mask) {
	t.Helper()
	// Feedback controllers operate at 0.5-15 s epochs; a 1 ms tick keeps
	// these minutes-long simulations fast without losing fidelity.
	cfg := machine.DefaultConfig()
	cfg.Topology = cpuid.Topology{Sockets: 1, Cores: 8}
	cfg.TickNs = 1_000_000
	m := machine.New(cfg)
	k := kernel.New(m)
	lc := cpuid.MaskOf(0, 1)
	batch := k.Spawn("kmeans", 8)
	for _, th := range batch.Threads() {
		chain(th, busyCost())
	}
	return m, k, []*kernel.Process{batch}, lc
}

func TestHeraclesConvergesInTensOfSeconds(t *testing.T) {
	m, k, procs, lc := feedbackEnv(t)
	lat := 1_000_000.0 // within 2 ms SLO
	f, err := StartFeedback(k, HeraclesConfig(2_000_000), func() float64 { return lat }, lc, procs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	m.RunFor(30_000_000_000)
	// Interference starts: latency above SLO until enough siblings are
	// evicted.
	f.MarkStimulus(m.Now())
	start := m.Now()
	lat = 5_000_000
	// The probe heals once both siblings are evicted.
	probeHealer := m.SchedulePeriodic(100_000_000, func(int64) {
		if f.EvictedSiblings() >= 2 {
			lat = 1_000_000
		}
	})
	defer probeHealer()
	m.RunFor(120_000_000_000) // 2 minutes
	conv := f.ConvergenceNs()
	if conv < 0 {
		t.Fatal("Heracles never converged")
	}
	secs := float64(conv) / 1e9
	if secs < 15 || secs > 90 {
		t.Fatalf("Heracles converged in %.1f s, expected tens of seconds", secs)
	}
	_ = start
}

func TestPartiesConvergesInTenToTwentySeconds(t *testing.T) {
	m, k, procs, lc := feedbackEnv(t)
	lat := 1_000_000.0
	f, err := StartFeedback(k, PartiesConfig(2_000_000), func() float64 { return lat }, lc, procs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	m.RunFor(2_000_000_000)
	f.MarkStimulus(m.Now())
	lat = 5_000_000
	probeHealer := m.SchedulePeriodic(100_000_000, func(int64) {
		if f.EvictedSiblings() >= 2 {
			lat = 1_000_000
		}
	})
	defer probeHealer()
	m.RunFor(60_000_000_000)
	conv := f.ConvergenceNs()
	if conv < 0 {
		t.Fatal("Parties never converged")
	}
	secs := float64(conv) / 1e9
	if secs < 2 || secs > 30 {
		t.Fatalf("Parties converged in %.1f s, expected ~10-20 s", secs)
	}
	// Parties must be much faster than Heracles' epoch structure but far
	// slower than microsecond schedulers.
	if f.Epochs() < 10 {
		t.Fatalf("Parties ran only %d epochs", f.Epochs())
	}
}

func TestFeedbackValidation(t *testing.T) {
	_, k, procs, lc := feedbackEnv(t)
	if _, err := StartFeedback(k, FeedbackConfig{}, nil, lc, procs); err == nil {
		t.Fatal("invalid feedback config accepted")
	}
}

func TestFeedbackReturnsSiblingsWithSlack(t *testing.T) {
	m, k, procs, lc := feedbackEnv(t)
	lat := 5_000_000.0
	f, _ := StartFeedback(k, PartiesConfig(2_000_000), func() float64 { return lat }, lc, procs)
	defer f.Stop()
	m.RunFor(30_000_000_000)
	if f.EvictedSiblings() == 0 {
		t.Fatal("controller never evicted under sustained violation")
	}
	lat = 500_000 // deep slack
	m.RunFor(60_000_000_000)
	if f.EvictedSiblings() != 0 {
		t.Fatalf("controller kept %d siblings evicted despite slack", f.EvictedSiblings())
	}
}

func TestCaladanReactsInMicroseconds(t *testing.T) {
	m, k, _ := newEnv()
	lc := cpuid.MaskOf(0, 1)
	batch := k.Spawn("kmeans", 8)
	for _, th := range batch.Threads() {
		chain(th, busyCost())
	}
	c := StartCaladan(k, lc, []*kernel.Process{batch})
	defer c.Stop()
	m.RunFor(1_000_000)
	if c.Paused() {
		t.Fatal("paused without LC activity")
	}

	// LC activity begins.
	svc := k.Spawn("redis", 2)
	_ = svc.SetAffinity(lc)
	for _, th := range svc.Threads() {
		chain(th, busyCost())
	}
	c.MarkStimulus(m.Now())
	m.RunFor(1_000_000)
	conv := c.ConvergenceNs()
	if conv < 0 {
		t.Fatal("Caladan never paused")
	}
	if conv > 100_000 {
		t.Fatalf("Caladan reacted in %d ns, expected tens of microseconds", conv)
	}
	if !c.Paused() {
		t.Fatal("not paused during LC activity")
	}

	// LC goes idle: batch resumes on siblings.
	svc.Exit()
	m.RunFor(1_000_000)
	if c.Paused() {
		t.Fatal("still paused after LC went idle")
	}
}

func TestStaticPartition(t *testing.T) {
	m, k, fs := newEnv()
	cfg := DefaultStaticConfig()
	cfg.ReservedCPUs = 2
	s, err := StartStatic(k, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	svc := k.Spawn("redis", 2)
	if err := s.RegisterLC(svc.PID); err != nil {
		t.Fatal(err)
	}
	for _, th := range svc.Threads() {
		chain(th, busyCost())
	}
	batch := k.Spawn("kmeans", 16)
	g, _ := fs.Mkdir("/yarn/job_1/container_0")
	g.AddPid(batch.PID)
	for _, th := range batch.Threads() {
		chain(th, busyCost())
	}
	m.RunFor(20_000_000)

	// The partition never includes reserved CPUs or their siblings.
	bm := s.BatchMask()
	if bm.Has(0) || bm.Has(1) || bm.Has(m.Sibling(0)) || bm.Has(m.Sibling(1)) {
		t.Fatalf("static batch mask leaks into LC territory: %v", bm.CPUs())
	}
	// The LC siblings stay permanently idle: the wasted capacity the
	// paper's motivation calls out.
	if m.BusyCycles(m.Sibling(0)) != 0 || m.BusyCycles(m.Sibling(1)) != 0 {
		t.Fatal("static partition let work onto LC siblings")
	}
	// Batch runs on its fixed partition.
	if m.BusyCycles(2) == 0 {
		t.Fatal("batch partition idle")
	}
}

func TestStaticValidation(t *testing.T) {
	_, k, fs := newEnv()
	if _, err := StartStatic(k, fs, StaticConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := StartStatic(k, fs, StaticConfig{ReservedCPUs: 99}); err == nil {
		t.Fatal("oversized reservation accepted")
	}
	s, _ := StartStatic(k, fs, DefaultStaticConfig())
	if err := s.RegisterLC(12345); err == nil {
		t.Fatal("unknown PID accepted")
	}
}
