package machine

import (
	"testing"

	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/workload"
)

// pinned is a trivial TickScheduler running fixed threads on fixed CPUs.
type pinned struct {
	threads map[int]*Thread
}

func (p *pinned) Assign(nowNs int64, assign []*Thread) {
	for cpu, t := range p.threads {
		assign[cpu] = t
	}
}

func newTestMachine() (*Machine, *pinned) {
	cfg := DefaultConfig()
	cfg.Topology = cpuid.Topology{Sockets: 1, Cores: 4}
	m := New(cfg)
	p := &pinned{threads: map[int]*Thread{}}
	m.SetScheduler(p)
	return m, p
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.FreqGHz = 0
	if bad.Validate() == nil {
		t.Fatal("zero frequency should be invalid")
	}
	bad = good
	bad.TickNs = -1
	if bad.Validate() == nil {
		t.Fatal("negative tick should be invalid")
	}
}

func TestClockAdvances(t *testing.T) {
	m, _ := newTestMachine()
	m.RunFor(100_000)
	if m.Now() != 100_000 {
		t.Fatalf("Now = %d", m.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	m, _ := newTestMachine()
	var order []int
	m.Schedule(30_000, func(int64) { order = append(order, 3) })
	m.Schedule(10_000, func(int64) { order = append(order, 1) })
	m.Schedule(10_000, func(int64) { order = append(order, 2) }) // same time: FIFO
	m.RunFor(50_000)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("event order = %v", order)
	}
}

func TestSchedulePeriodicAndStop(t *testing.T) {
	m, _ := newTestMachine()
	count := 0
	stop := m.SchedulePeriodic(10_000, func(int64) { count++ })
	m.RunFor(55_000)
	if count != 5 {
		t.Fatalf("periodic fired %d times, want 5", count)
	}
	stop()
	m.RunFor(100_000)
	if count != 5 {
		t.Fatalf("periodic fired after stop: %d", count)
	}
}

func TestSingleItemLatency(t *testing.T) {
	m, p := newTestMachine()
	th := m.NewThread("w", nil)
	p.threads[0] = th

	// 20000 compute cycles at 2 GHz = 10 µs exactly one tick.
	var doneAt int64 = -1
	th.Push(workload.Item{
		Cost:       workload.Compute(20000),
		OnComplete: func(now int64) { doneAt = now },
	})
	m.RunFor(100_000)
	if doneAt < 0 {
		t.Fatal("item never completed")
	}
	if doneAt != 10_000 {
		t.Fatalf("completion at %d ns, want 10000", doneAt)
	}
}

func TestSubTickInterpolation(t *testing.T) {
	m, p := newTestMachine()
	th := m.NewThread("w", nil)
	p.threads[0] = th
	// Half a tick of work: 10000 cycles = 5 µs.
	var doneAt int64 = -1
	th.Push(workload.Item{
		Cost:       workload.Compute(10000),
		OnComplete: func(now int64) { doneAt = now },
	})
	m.RunFor(20_000)
	if doneAt != 5_000 {
		t.Fatalf("completion at %d ns, want 5000 (sub-tick interpolation)", doneAt)
	}
}

func TestMultiTickItem(t *testing.T) {
	m, p := newTestMachine()
	th := m.NewThread("w", nil)
	p.threads[0] = th
	// 3.5 ticks of compute.
	var doneAt int64 = -1
	th.Push(workload.Item{
		Cost:       workload.Compute(70000),
		OnComplete: func(now int64) { doneAt = now },
	})
	m.RunFor(100_000)
	if doneAt != 35_000 {
		t.Fatalf("completion at %d ns, want 35000", doneAt)
	}
}

func TestFIFOCompletionOrder(t *testing.T) {
	m, p := newTestMachine()
	th := m.NewThread("w", nil)
	p.threads[0] = th
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		th.Push(workload.Item{
			Cost:       workload.Compute(1000),
			OnComplete: func(int64) { order = append(order, i) },
		})
	}
	m.RunFor(50_000)
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order = %v", order)
		}
	}
	if th.CompletedItems != 5 {
		t.Fatalf("CompletedItems = %d", th.CompletedItems)
	}
}

func TestSleepItem(t *testing.T) {
	m, p := newTestMachine()
	th := m.NewThread("w", nil)
	p.threads[0] = th
	var doneAt int64 = -1
	var afterAt int64 = -1
	th.Push(workload.Sleep(80_000))
	th.Push(workload.Item{Cost: workload.Compute(2000), OnComplete: func(now int64) { afterAt = now }})
	items := th.QueueLen()
	_ = items
	th.queue[0].OnComplete = func(now int64) { doneAt = now }
	m.RunFor(200_000)
	if doneAt < 80_000 || doneAt > 90_000 {
		t.Fatalf("sleep completed at %d, want ~80000", doneAt)
	}
	if afterAt <= doneAt {
		t.Fatalf("post-sleep work at %d, sleep at %d", afterAt, doneAt)
	}
	// Sleeping must not consume CPU.
	if m.BusyCycles(0) > 5_000 {
		t.Fatalf("busy cycles during sleep = %v", m.BusyCycles(0))
	}
}

func TestThreadStateTransitions(t *testing.T) {
	m, p := newTestMachine()
	var readyCount, stopCount int
	l := &fakeListener{
		onReady: func(*Thread) { readyCount++ },
		onStop:  func(*Thread) { stopCount++ },
	}
	th := m.NewThread("w", l)
	p.threads[0] = th
	if th.State() != Idle {
		t.Fatalf("initial state = %v", th.State())
	}
	th.Push(workload.Work(workload.Compute(100)))
	if th.State() != Runnable || readyCount != 1 {
		t.Fatalf("state after push = %v ready=%d", th.State(), readyCount)
	}
	m.RunFor(20_000)
	if th.State() != Idle || stopCount != 1 {
		t.Fatalf("state after drain = %v stops=%d", th.State(), stopCount)
	}
	th.Exit()
	if th.State() != Exited {
		t.Fatal("exit failed")
	}
}

type fakeListener struct {
	onReady func(*Thread)
	onStop  func(*Thread)
}

func (f *fakeListener) ThreadReady(t *Thread)   { f.onReady(t) }
func (f *fakeListener) ThreadStopped(t *Thread) { f.onStop(t) }

func TestPushToExitedPanics(t *testing.T) {
	m, _ := newTestMachine()
	th := m.NewThread("w", nil)
	th.Exit()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	th.Push(workload.Work(workload.Compute(1)))
}

// memItem returns a DRAM-bound item like one 1MB random block access.
func memItem(done *int64) workload.Item {
	c := workload.ReadBytes(workload.DRAM, 1<<20)
	return workload.Item{Cost: c, OnComplete: func(now int64) { *done = now }}
}

// runBlockLatency measures the time to read one 1MB block on cpu0 with an
// optional competing workload.
func runBlockLatency(t *testing.T, competitor func(m *Machine, p *pinned)) float64 {
	t.Helper()
	m, p := newTestMachine()
	th := m.NewThread("m-thread", nil)
	p.threads[0] = th
	if competitor != nil {
		competitor(m, p)
		// Warm up so sibling duty cycles are established.
		m.RunFor(100_000)
	}
	start := m.Now()
	var done int64 = -1
	th.Push(memItem(&done))
	m.RunFor(5_000_000)
	if done < 0 {
		t.Fatal("block access never completed")
	}
	return float64(done - start)
}

func TestFig2BaselineBlockLatency(t *testing.T) {
	// Case 1: one m-thread alone. The paper measures ~1400 µs per 1MB
	// block; calibration should land within 15%.
	lat := runBlockLatency(t, nil)
	if lat < 1_200_000 || lat > 1_650_000 {
		t.Fatalf("alone 1MB block latency = %.0f ns, want ~1.4e6", lat)
	}
}

func TestFig2SiblingMemInterference(t *testing.T) {
	alone := runBlockLatency(t, nil)
	// Case 3: sibling logical CPU runs a saturating m-thread.
	withSib := runBlockLatency(t, func(m *Machine, p *pinned) {
		sib := m.NewThread("sib", nil)
		for i := 0; i < 50; i++ {
			sib.Push(workload.Work(workload.ReadBytes(workload.DRAM, 1<<20)))
		}
		p.threads[m.Sibling(0)] = sib
	})
	ratio := withSib / alone
	// Paper: 1400 -> 2300 µs, a 1.64x inflation.
	if ratio < 1.45 || ratio > 1.85 {
		t.Fatalf("sibling m-thread inflation = %.2fx, want ~1.64x", ratio)
	}
}

func TestFig2ComputeSiblingMuchMilder(t *testing.T) {
	alone := runBlockLatency(t, nil)
	// Case 6: sibling runs a compute-bound thread.
	withC := runBlockLatency(t, func(m *Machine, p *pinned) {
		sib := m.NewThread("c-thread", nil)
		sib.Push(workload.Work(workload.Compute(1e9)))
		p.threads[m.Sibling(0)] = sib
	})
	ratio := withC / alone
	if ratio < 1.02 || ratio > 1.30 {
		t.Fatalf("compute sibling inflation = %.2fx, want mild (~1.12x)", ratio)
	}
	// And it must be far milder than a memory sibling.
	withM := runBlockLatency(t, func(m *Machine, p *pinned) {
		sib := m.NewThread("sib", nil)
		for i := 0; i < 50; i++ {
			sib.Push(workload.Work(workload.ReadBytes(workload.DRAM, 1<<20)))
		}
		p.threads[m.Sibling(0)] = sib
	})
	if withC >= withM {
		t.Fatalf("compute sibling (%.0f) should interfere less than memory sibling (%.0f)", withC, withM)
	}
}

func TestFig2SeparateCoresNoInterference(t *testing.T) {
	alone := runBlockLatency(t, nil)
	// Case 2: another m-thread on a *different physical core*.
	sep := runBlockLatency(t, func(m *Machine, p *pinned) {
		other := m.NewThread("other", nil)
		for i := 0; i < 50; i++ {
			other.Push(workload.Work(workload.ReadBytes(workload.DRAM, 1<<20)))
		}
		p.threads[1] = other // core 1, not a sibling of cpu 0
	})
	ratio := sep / alone
	if ratio < 0.95 || ratio > 1.10 {
		t.Fatalf("separate-core inflation = %.2fx, want ~1.0x", ratio)
	}
}

func TestCountersAccumulate(t *testing.T) {
	m, p := newTestMachine()
	th := m.NewThread("w", nil)
	p.threads[0] = th
	c := workload.ReadBytes(workload.DRAM, 64*100) // 100 loads
	c.Add(workload.MemWrite(workload.DRAM, 10))
	th.Push(workload.Work(c))
	m.RunFor(1_000_000)
	got := m.Counters(0)
	if got.Loads != 100 {
		t.Fatalf("Loads = %v", got.Loads)
	}
	if got.Stores != 10 {
		t.Fatalf("Stores = %v", got.Stores)
	}
	if got.StallsMemAny <= 0 || got.CyclesMemAny <= 0 || got.StallsL3Miss <= 0 || got.CyclesL3Miss <= 0 {
		t.Fatalf("memory counters not accumulated: %+v", got)
	}
	if got.Cycles <= 0 || got.Instructions <= 0 {
		t.Fatal("architectural counters not accumulated")
	}
	// Sibling CPU stayed idle: no counters.
	if sib := m.Counters(m.Sibling(0)); sib.Cycles != 0 {
		t.Fatalf("idle sibling accumulated cycles: %+v", sib)
	}
}

func TestVPIRisesUnderSiblingInterference(t *testing.T) {
	// The core Holmes phenomenon: STALLS_MEM_ANY per memory instruction
	// on a victim CPU rises when its sibling runs memory work.
	measure := func(withSibling bool) float64 {
		m, p := newTestMachine()
		victim := m.NewThread("victim", nil)
		p.threads[0] = victim
		if withSibling {
			agg := m.NewThread("aggressor", nil)
			for i := 0; i < 100; i++ {
				agg.Push(workload.Work(workload.ReadBytes(workload.DRAM, 1<<20)))
			}
			p.threads[m.Sibling(0)] = agg
			m.RunFor(100_000)
		}
		before := m.Counters(0)
		for i := 0; i < 20; i++ {
			victim.Push(workload.Work(workload.ReadBytes(workload.DRAM, 64*1024)))
		}
		m.RunFor(10_000_000)
		return m.Counters(0).Sub(before).VPI(0x14A3)
	}
	quiet := measure(false)
	noisy := measure(true)
	if quiet <= 0 {
		t.Fatal("zero VPI for active workload")
	}
	if noisy < quiet*1.4 {
		t.Fatalf("VPI under interference %.1f vs quiet %.1f; want >=1.4x", noisy, quiet)
	}
}

func TestBandwidthFactorKnee(t *testing.T) {
	m, _ := newTestMachine()
	low := m.bandwidthFactor(0)
	if low != 1 {
		t.Fatalf("idle bandwidth factor = %v", low)
	}
	capBytes := int64(bandwidthGBs * float64(m.cfg.TickNs))
	mid := m.bandwidthFactor(capBytes / 2) // 50% utilization
	if mid > 1.05 {
		t.Fatalf("50%% utilization factor = %v, want negligible", mid)
	}
	high := m.bandwidthFactor(capBytes * 95 / 100)
	if high < 1.5 {
		t.Fatalf("95%% utilization factor = %v, want a sharp knee", high)
	}
	over := m.bandwidthFactor(capBytes * 2)
	if over < high {
		t.Fatal("factor must not decrease past saturation")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	m, p := newTestMachine()
	th := m.NewThread("w", nil)
	p.threads[0] = th
	// Saturate cpu0 for the whole window.
	th.Push(workload.Work(workload.Compute(1e9)))
	before := m.BusyCycles(0)
	m.RunFor(1_000_000)
	u := m.Utilization(before, 0, 1_000_000)
	if u < 0.99 || u > 1.0 {
		t.Fatalf("saturated utilization = %v", u)
	}
	if idle := m.Utilization(m.BusyCycles(1), 1, 1_000_000); idle != 0 {
		t.Fatalf("idle utilization = %v", idle)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, float64) {
		m, p := newTestMachine()
		th := m.NewThread("w", nil)
		p.threads[0] = th
		sib := m.NewThread("s", nil)
		p.threads[m.Sibling(0)] = sib
		var done int64
		for i := 0; i < 10; i++ {
			th.Push(workload.Item{Cost: workload.ReadBytes(workload.DRAM, 1<<18),
				OnComplete: func(now int64) { done = now }})
			sib.Push(workload.Work(workload.ReadBytes(workload.DRAM, 1<<18)))
		}
		m.RunFor(10_000_000)
		return done, m.Counters(0).StallsMemAny
	}
	d1, s1 := run()
	d2, s2 := run()
	if d1 != d2 || s1 != s2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", d1, s1, d2, s2)
	}
}

func TestExitDiscardsPendingWork(t *testing.T) {
	m, p := newTestMachine()
	th := m.NewThread("w", nil)
	p.threads[0] = th
	completed := 0
	th.Push(workload.Item{Cost: workload.Compute(1e8), OnComplete: func(int64) { completed++ }})
	m.RunFor(10_000)
	th.Exit()
	m.RunFor(1_000_000)
	if completed != 0 {
		t.Fatal("exited thread completed work")
	}
	if th.State() != Exited {
		t.Fatal("state not exited")
	}
}

func TestDoubleAssignGuard(t *testing.T) {
	// A scheduler that (incorrectly) assigns one thread to two CPUs must
	// not double-charge it.
	cfg := DefaultConfig()
	cfg.Topology = cpuid.Topology{Sockets: 1, Cores: 4}
	m := New(cfg)
	th := m.NewThread("w", nil)
	m.SetScheduler(schedFunc(func(now int64, assign []*Thread) {
		assign[0] = th
		assign[1] = th
	}))
	var done int64 = -1
	th.Push(workload.Item{Cost: workload.Compute(40_000), // 2 ticks
		OnComplete: func(now int64) { done = now }})
	m.RunFor(100_000)
	if done != 20_000 {
		t.Fatalf("double-assigned thread completed at %d, want 20000", done)
	}
}

type schedFunc func(now int64, assign []*Thread)

func (f schedFunc) Assign(now int64, assign []*Thread) { f(now, assign) }

func TestStoreHeavyWorkCounts(t *testing.T) {
	m, p := newTestMachine()
	th := m.NewThread("w", nil)
	p.threads[0] = th
	th.Push(workload.Work(workload.WriteBytes(workload.DRAM, 64*1000)))
	m.RunFor(10_000_000)
	c := m.Counters(0)
	if c.Stores != 1000 {
		t.Fatalf("Stores = %v", c.Stores)
	}
	// Stores commit through execution, not the memory stall pipe.
	if c.StallsMemAny != 0 {
		t.Fatalf("stores should not add memory stalls, got %v", c.StallsMemAny)
	}
}

// TestChainedQueueStaysSmall drives the pattern of every batch container
// thread: each item's OnComplete pushes the next. The pop that takes an
// item drains the queue, so the next push reuses slot 0 and the backing
// array stays at its first size instead of growing to the compaction
// threshold.
func TestChainedQueueStaysSmall(t *testing.T) {
	m, p := newTestMachine()
	th := m.NewThread("chain", nil)
	p.threads[0] = th
	const units = 10_000
	done, maxCap := 0, 0
	var item workload.Item
	item = workload.Item{Cost: workload.Compute(20_000), OnComplete: func(int64) {
		done++
		maxCap = max(maxCap, cap(th.queue))
		if done < units {
			th.Push(item)
		}
	}}
	th.Push(item)
	for i := 0; done < units && i < 1000; i++ {
		m.RunFor(10_000_000)
	}
	if done != units || th.CompletedItems != units {
		t.Fatalf("completed %d units (thread counts %d), want %d", done, th.CompletedItems, units)
	}
	if maxCap > 4 || cap(th.queue) > 4 {
		t.Fatalf("chained queue capacity reached %d (now %d), want at most 4", maxCap, cap(th.queue))
	}
}
