// Package machine implements the discrete-time SMT server simulator that
// substitutes for the paper's physical Xeon testbed. It models physical
// cores with two hardware threads sharing execution units and the memory
// pipeline, a DRAM bandwidth budget, and the per-logical-CPU hardware
// performance counters Holmes reads through the perf substrate.
//
// The simulation advances in fixed ticks. Within a tick each logical CPU
// executes at most one thread (the kernel's per-tick assignment), charging
// the thread's work items with effective cycle costs that depend on the
// *sibling* hardware thread's activity during the previous tick — the SMT
// interference channel the paper diagnoses. Item completions are
// interpolated inside the tick, so request latencies are continuous even
// though scheduling is quantized.
package machine

import (
	"fmt"
	"math"

	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/hpe"
	"github.com/holmes-colocation/holmes/internal/rng"
	"github.com/holmes-colocation/holmes/internal/workload"
)

// TickScheduler decides which thread each logical CPU runs during the next
// tick. The kernel package implements it; tests may use simple pinned
// assignments.
type TickScheduler interface {
	// Assign fills assign[lcpu] with the thread to run (nil = idle). The
	// slice is reused across ticks; implementations must overwrite every
	// entry they care about and may leave others nil.
	Assign(nowNs int64, assign []*Thread)
}

// IdleSkipper is optionally implemented by TickSchedulers whose Assign is
// a pure no-op (beyond per-tick accounting) whenever no machine thread is
// runnable. When the installed scheduler implements it, the machine
// replaces runs of fully idle ticks — no runnable thread, no due event —
// with a single SkipIdleTicks(n) notification instead of n Assign calls,
// and fast-forwards simulated time to the next event. The scheduler must
// bring every per-tick side effect it would have had over n idle ticks
// (timeslice phase, steal cadence, telemetry) up to date, so observable
// behavior is identical to stepping tick by tick.
type IdleSkipper interface {
	SkipIdleTicks(n int64)
}

// lcpu is the per-logical-CPU simulation state.
type lcpu struct {
	counters hpe.Counters
	// busyCycles accumulates effective cycles executed (for utilization).
	busyCycles float64
	// execs counts exec calls on this CPU. exec and the attribute calls
	// it makes are the only writers of counters and busyCycles, so an
	// unchanged count proves both are bitwise unchanged.
	execs uint64
	// Previous-tick activity fractions, read by the sibling this tick.
	memDuty float64 // fraction of tick stalled on memory
	euDuty  float64 // fraction of tick executing compute
	// Next-tick values being accumulated.
	nextMemStall float64
	nextExec     float64
	// OU noise state per noisy counter (multiplicative, log-space).
	noise [4]float64

	// Memoized interference factors: the last (sibling memDuty, sibling
	// euDuty, machine bwFactor) input triple and the factors the full
	// computation produced for it. Loaded stretches hit steady states
	// where the inputs repeat bitwise for many ticks; returning the
	// stored result of the identical computation is exact. ifBw == 0 is
	// the never-computed sentinel (real bandwidth factors are >= 1).
	ifMemD, ifEuD, ifBw      float64
	ifDRAM, ifL3, ifL2, ifEU float64
	// Memoized duty commit: the last (nextMemStall, nextExec) pair fed
	// into the end-of-tick commit and the duties it produced. The zero
	// state maps to zero duties, which clamp01(0/budget) == +0.0 also
	// yields, so the zero initialization is a valid cache entry.
	dcNextMem, dcNextExec float64
	dcMemDuty, dcEuDuty   float64
}

// commitDuty turns the tick's accumulated stall/exec cycles into the duty
// fractions the sibling reads next tick, then clears the accumulators. The
// division results are memoized on the accumulator values: duties are a
// pure function of (nextMemStall, nextExec, budget), budget is fixed for
// the machine's lifetime, and loaded steady states repeat the accumulator
// values bitwise for many ticks. The zero-initialized cache entry is valid
// because clamp01(0/budget) == +0.0 and the accumulators, as sums of
// nonnegative terms starting at +0.0, are never -0.0.
// commitDutyFast applies the memoized duties if the accumulators match
// the cached pair, reporting whether it did. It contains no calls so the
// per-tick commit loops inline it; on a miss the caller falls back to
// commitDutyMiss. The split exists because a single function with both
// paths exceeds the inlining budget by exactly the cost of the residual
// call.
func (c *lcpu) commitDutyFast() bool {
	if c.nextMemStall == c.dcNextMem && c.nextExec == c.dcNextExec {
		c.memDuty, c.euDuty = c.dcMemDuty, c.dcEuDuty
		c.nextMemStall, c.nextExec = 0, 0
		return true
	}
	return false
}

// commitDutyMiss recomputes and re-memoizes the duties on a cache miss.
func (c *lcpu) commitDutyMiss(budget float64) {
	c.dcNextMem, c.dcNextExec = c.nextMemStall, c.nextExec
	c.memDuty = clamp01(c.nextMemStall / budget)
	c.euDuty = clamp01(c.nextExec / budget)
	c.dcMemDuty, c.dcEuDuty = c.memDuty, c.euDuty
	c.nextMemStall, c.nextExec = 0, 0
}

// The unrolled purity check in Thread.nextItem assumes four hierarchy
// levels; this fails to compile if workload gains one.
var _ [4]workload.Access = [workload.NumLevels]workload.Access{}

// Noise indices into lcpu.noise.
const (
	nStallsMemAny = iota
	nCyclesMemAny
	nStallsL3Miss
	nCyclesL3Miss
)

// Machine is the simulated SMT server.
type Machine struct {
	cfg             Config
	topo            cpuid.Topology
	now             int64
	events          eventQueue
	lcpus           []lcpu
	sched           TickScheduler
	skipper         IdleSkipper       // sched, if it opts into idle skipping
	interval        IntervalScheduler // sched, if it opts into interval batching (and cfg allows)
	assign          []*Thread
	rng             *rng.Source
	nextTID         int
	lastNoiseUpdate int64
	// siblingOf caches the topology's sibling mapping for the hot path.
	siblingOf []int

	// runnable counts threads in the Runnable state. The tick loop and the
	// idle fast-forward branch on it instead of scanning.
	runnable int

	// Derived configuration values, cached because the per-tick path reads
	// them every tick (the expressions are kept identical to the Config
	// methods so cached and recomputed values are bit-equal).
	cyclesPerTick float64
	tickNsF       float64
	bwCapBytes    float64
	noiseRho      float64
	noiseDrive    float64
	noiseSigmas   [4]float64

	// dutyClean records that every lcpu's duty cycles and pending
	// accumulators are zero, letting idle ticks skip the commit loop.
	dutyClean bool

	// DRAM bandwidth bookkeeping: bytes transferred last tick set the
	// queueing factor applied this tick.
	dramBytesTick int64
	bwFactor      float64
	// Memoized bandwidthFactor evaluation: the factor is a pure function
	// of the byte count, and loaded steady states repeat the same count
	// tick after tick. New seeds the entry with (0, 1), which is exact:
	// rawBandwidthFactor(0) == 1.
	bwInBytes   int64
	bwOutFactor float64

	// batchedTicks counts ticks advanced through the interval-batched
	// loaded path, for tests and benchmarks asserting the fast path ran.
	batchedTicks int64

	// active lists, in ascending order, the logical CPUs that may carry
	// nonzero duty state (memDuty/euDuty/nextMemStall/nextExec) on the
	// interval path; every CPU outside it is exactly zero, which is what
	// lets the narrow commit scans skip the rest of the topology. Only
	// maintained while interval != nil.
	active []int32
}

// New constructs a Machine from cfg. It panics on invalid configuration
// (construction errors are programming errors in this codebase).
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Topology.LogicalCPUs()
	m := &Machine{
		cfg:             cfg,
		topo:            cfg.Topology,
		lcpus:           make([]lcpu, n),
		assign:          make([]*Thread, n),
		rng:             rng.New(cfg.Seed),
		bwFactor:        1,
		bwOutFactor:     1,
		lastNoiseUpdate: -1,
		siblingOf:       make([]int, n),
		cyclesPerTick:   cfg.CyclesPerTick(),
		tickNsF:         float64(cfg.TickNs),
		bwCapBytes:      bandwidthGBs * float64(cfg.TickNs), // GB/s * ns = bytes
		noiseRho:        math.Exp(-float64(noiseIntervalNs) / float64(noiseTauNs)),
		dutyClean:       true,
	}
	m.noiseDrive = math.Sqrt(1 - m.noiseRho*m.noiseRho)
	m.noiseSigmas = [4]float64{
		nStallsMemAny: sigmaStallsMemAny,
		nCyclesMemAny: sigmaCyclesMemAny,
		nStallsL3Miss: sigmaStallsL3Miss,
		nCyclesL3Miss: sigmaCyclesL3Miss,
	}
	for p := 0; p < n; p++ {
		m.siblingOf[p] = cfg.Topology.SiblingOf(p)
	}
	// Start the counter noise states at their stationary distribution so
	// short runs see representative attribution variance.
	for p := range m.lcpus {
		for i := range m.lcpus[p].noise {
			m.lcpus[p].noise[i] = m.noiseSigmas[i] * m.rng.NormFloat64()
		}
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Topology returns the machine's CPU topology.
func (m *Machine) Topology() cpuid.Topology { return m.topo }

// Now returns the current simulated time in nanoseconds.
func (m *Machine) Now() int64 { return m.now }

// SetScheduler installs the per-tick assignment policy. It must be set
// before Run; a nil scheduler leaves every CPU idle. Schedulers that also
// implement IdleSkipper opt into idle-tick fast-forwarding; schedulers
// that implement IntervalScheduler additionally opt into the
// interval-batched loaded path when Config.IntervalBatching is set.
func (m *Machine) SetScheduler(s TickScheduler) {
	m.sched = s
	m.skipper, _ = s.(IdleSkipper)
	m.interval = nil
	if m.cfg.IntervalBatching {
		m.interval, _ = s.(IntervalScheduler)
	}
	if m.interval != nil {
		// Seed the active set with every CPU: a previous scheduler's full
		// steps don't maintain it, so the first narrow commit must cover
		// whatever duty state they left behind.
		m.active = m.active[:0]
		for p := range m.lcpus {
			m.active = append(m.active, int32(p))
		}
	}
}

// NewThread creates a thread in the Idle state. listener may be nil.
func (m *Machine) NewThread(name string, listener ThreadListener) *Thread {
	m.nextTID++
	return &Thread{ID: m.nextTID, Name: name, m: m, listener: listener, lastExecTick: -1}
}

// Schedule enqueues fn to run at absolute simulated time at. Events
// scheduled in the past run before the next tick.
func (m *Machine) Schedule(at int64, fn func(nowNs int64)) {
	m.events.schedule(at, fn)
}

// ScheduleAfter enqueues fn after a delay from now.
func (m *Machine) ScheduleAfter(delay int64, fn func(nowNs int64)) {
	m.events.schedule(m.now+delay, fn)
}

// SchedulePeriodic runs fn every period, starting after one period.
// The returned stop function cancels future invocations.
func (m *Machine) SchedulePeriodic(period int64, fn func(nowNs int64)) (stop func()) {
	stopped := false
	var tick func(nowNs int64)
	tick = func(nowNs int64) {
		if stopped {
			return
		}
		fn(nowNs)
		if !stopped {
			m.events.schedule(nowNs+period, tick)
		}
	}
	m.events.schedule(m.now+period, tick)
	return func() { stopped = true }
}

// Counters returns a snapshot of logical CPU p's cumulative counters.
func (m *Machine) Counters(p int) hpe.Counters { return m.lcpus[p].counters }

// BusyCycles returns the cumulative effective cycles executed on p.
func (m *Machine) BusyCycles(p int) float64 { return m.lcpus[p].busyCycles }

// ExecCount returns how many times logical CPU p has executed a thread
// for (part of) a tick. Counters(p) and BusyCycles(p) change only inside
// such an execution, so when ExecCount(p) has not moved between two
// observations both are bitwise unchanged; the reverse does not hold (a
// thread may block without consuming a cycle).
func (m *Machine) ExecCount(p int) uint64 { return m.lcpus[p].execs }

// Sibling returns the hyperthread sibling of logical CPU p.
func (m *Machine) Sibling(p int) int { return m.siblingOf[p] }

// BatchedTicks returns the cumulative number of ticks advanced through
// the interval-batched loaded path (zero when Config.IntervalBatching is
// off or the scheduler does not implement IntervalScheduler).
func (m *Machine) BatchedTicks() int64 { return m.batchedTicks }

// RunUntil advances the simulation to absolute time end. Stretches with no
// runnable thread and no due event are fast-forwarded in one jump when the
// scheduler permits it (see IdleSkipper); time still lands on exactly the
// tick boundaries a tick-by-tick run would produce. Loaded stretches —
// runs of ticks between scheduling events with a fixed assignment — take
// the interval-batched path when the scheduler opts in (see
// IntervalScheduler); both fast paths are bit-identical to stepping.
func (m *Machine) RunUntil(end int64) {
	for m.now < end {
		if m.idleNow() {
			m.fastForward(end)
			continue
		}
		if m.interval != nil {
			m.stepInterval(end)
			continue
		}
		m.step()
	}
}

// RunFor advances the simulation by d nanoseconds.
func (m *Machine) RunFor(d int64) { m.RunUntil(m.now + d) }

// idleNow reports whether the tick starting at m.now would do no work at
// all: nothing runnable, no event due, and a scheduler whose idle ticks
// are skippable (or none). Events are the only thing that can change that,
// so every tick until the next event is equally idle.
func (m *Machine) idleNow() bool {
	if m.sched != nil && (m.runnable > 0 || m.skipper == nil) {
		return false
	}
	next, ok := m.events.peekTime()
	return !ok || next > m.now
}

// ceilTick returns the first tick boundary at or after t (current time for
// earlier t — ticks in the past cannot be revisited).
func (m *Machine) ceilTick(t int64) int64 {
	if t <= m.now {
		return m.now
	}
	d := t - m.now
	steps := (d + m.cfg.TickNs - 1) / m.cfg.TickNs
	return m.now + steps*m.cfg.TickNs
}

// fastForward advances over the maximal run of idle ticks in one jump: up
// to the tick that will fire the next event, capped at the first boundary
// >= end (where RunUntil stops). Everything an idle tick would have done is
// replayed in aggregate — noise updates draw the same RNG values at the
// same tick times, the scheduler's per-tick accounting is batched through
// SkipIdleTicks, and the duty/bandwidth state settles to the all-zero
// fixed point idle ticks drive it to — so no consumer can distinguish the
// jump from having stepped tick by tick.
func (m *Machine) fastForward(end int64) {
	target := m.ceilTick(end)
	if next, ok := m.events.peekTime(); ok {
		if e := m.ceilTick(next); e < target {
			target = e
		}
	}
	m.replayNoise(target)
	if m.skipper != nil {
		m.skipper.SkipIdleTicks((target - m.now) / m.cfg.TickNs)
	}
	m.settleIdleState()
	m.now = target
}

// settleIdleState applies the per-tick state decay one idle tick performs:
// duty cycles commit to zero (nothing executed) and last tick's DRAM
// traffic is consumed. After the first idle tick these are fixed points,
// so applying them once covers any number of skipped ticks.
func (m *Machine) settleIdleState() {
	m.dramBytesTick = 0
	m.bwFactor = 1 // == bandwidthFactor(0)
	if !m.dutyClean {
		if m.interval != nil {
			// Interval path: only CPUs in the active set can carry duty
			// state; everything else is already at the zero fixed point.
			for _, p := range m.active {
				c := &m.lcpus[p]
				c.memDuty, c.euDuty = 0, 0
				c.nextMemStall, c.nextExec = 0, 0
			}
			m.active = m.active[:0]
		} else {
			for p := range m.lcpus {
				c := &m.lcpus[p]
				c.memDuty, c.euDuty = 0, 0
				c.nextMemStall, c.nextExec = 0, 0
			}
		}
		m.dutyClean = true
	}
}

// step executes one tick.
func (m *Machine) step() {
	// Fire all events due at or before the current tick start.
	for {
		ev, ok := m.events.popDue(m.now)
		if !ok {
			break
		}
		ev.fn(m.now)
	}

	m.maybeUpdateNoise()

	// An event fired but left nothing runnable: the rest of the tick is
	// idle, so take the aggregate path instead of scanning assign/lcpus.
	if m.sched == nil || (m.runnable == 0 && m.skipper != nil) {
		if m.skipper != nil {
			m.skipper.SkipIdleTicks(1)
		}
		m.settleIdleState()
		m.now += m.cfg.TickNs
		return
	}

	// Ask the scheduler for this tick's assignment.
	for i := range m.assign {
		m.assign[i] = nil
	}
	m.sched.Assign(m.now, m.assign)

	// Bandwidth queueing factor from last tick's traffic.
	m.bwFactor = m.bandwidthFactor(m.dramBytesTick)
	m.dramBytesTick = 0

	// Execute every logical CPU against the *previous* tick's sibling
	// duty cycles (two-phase update keeps the coupling symmetric).
	anyExec := false
	for p := range m.lcpus {
		t := m.assign[p]
		if t != nil && t.state == Runnable && t.lastExecTick != m.now {
			t.lastExecTick = m.now
			m.exec(p, t)
			anyExec = true
		}
	}

	// Commit this tick's duty cycles for the next tick. When nothing
	// executed and the duties are already zero, the loop would be a no-op.
	if anyExec || !m.dutyClean {
		budget := m.cyclesPerTick
		for p := range m.lcpus {
			if c := &m.lcpus[p]; !c.commitDutyFast() {
				c.commitDutyMiss(budget)
			}
		}
		m.dutyClean = !anyExec
	}

	m.now += m.cfg.TickNs
}

// interference returns the latency multipliers for logical CPU p given its
// sibling's previous-tick duty cycles.
func (m *Machine) interference(p int) (fDRAM, fL3, fL2, fEU float64) {
	fDRAM, fL3, fL2, fEU, ok := m.interferenceFast(p)
	if ok {
		return
	}
	sib := &m.lcpus[m.siblingOf[p]]
	return m.interferenceMiss(&m.lcpus[p], sib.memDuty, sib.euDuty)
}

// interferenceFast handles the two call-free cases — idle sibling and
// memo hit — so exec inlines them; ok == false sends the caller to the
// interference fallback.
func (m *Machine) interferenceFast(p int) (fDRAM, fL3, fL2, fEU float64, ok bool) {
	sib := &m.lcpus[m.siblingOf[p]]
	memD, euD := sib.memDuty, sib.euDuty
	if memD == 0 && euD == 0 {
		// Idle sibling: every coefficient multiplies a zero duty, so each
		// factor is exactly 1 and 1*bwFactor == bwFactor bitwise — the
		// shortcut is exact, not approximate.
		return m.bwFactor, 1, 1, 1, true
	}
	c := &m.lcpus[p]
	if memD == c.ifMemD && euD == c.ifEuD && m.bwFactor == c.ifBw {
		// The factors are a pure function of this input triple; bitwise
		// equal inputs reproduce the stored result exactly.
		return c.ifDRAM, c.ifL3, c.ifL2, c.ifEU, true
	}
	return 0, 0, 0, 0, false
}

// interferenceMiss recomputes and re-memoizes the factors on a cache miss.
func (m *Machine) interferenceMiss(c *lcpu, memD, euD float64) (fDRAM, fL3, fL2, fEU float64) {
	fDRAM = 1 + interfDRAMMem*memD + interfDRAMEU*euD
	fL3 = 1 + interfL3Mem*memD + interfL3EU*euD
	fL2 = 1 + interfL2Mem*memD
	fEU = 1 + euContention*euD + euMemContention*memD
	fDRAM *= m.bwFactor
	c.ifMemD, c.ifEuD, c.ifBw = memD, euD, m.bwFactor
	c.ifDRAM, c.ifL3, c.ifL2, c.ifEU = fDRAM, fL3, fL2, fEU
	return
}

// effectiveCost returns the effective cycle cost of base cost c on CPU p
// under the current interference factors, split into compute and memory
// stall portions. exec's hot loop open-codes the pure-compute case (every
// stall term would be 0*k*f == +0.0 and exec += +0.0 is the identity) and
// calls effectiveCostMem directly; this wrapper is the reference spelling.
func (m *Machine) effectiveCost(c *workload.Cost, pure bool, fDRAM, fL3, fL2, fEU float64) (exec, memStall, dramStall float64) {
	exec = c.ComputeCycles * fEU
	if pure {
		return exec, 0, 0
	}
	return m.effectiveCostMem(c, exec, fDRAM, fL3, fL2)
}

// effectiveCostMem prices the memory-access side of a cost.
func (m *Machine) effectiveCostMem(c *workload.Cost, execIn, fDRAM, fL3, fL2 float64) (exec, memStall, dramStall float64) {
	exec = execIn
	l2 := float64(c.Acc[workload.L2].Loads) * l2Cycles * fL2
	l3 := float64(c.Acc[workload.L3].Loads) * l3Cycles * fL3
	dram := float64(c.Acc[workload.DRAM].Loads) * dramCycles * fDRAM
	stores := float64(c.Stores()) * storeCycles
	exec += stores // store commit occupies execution, not the memory pipe
	memStall = l2 + l3 + dram
	dramStall = dram
	return
}

// exec runs thread t on logical CPU p for one tick.
func (m *Machine) exec(p int, t *Thread) {
	budget := m.cyclesPerTick
	fDRAM, fL3, fL2, fEU, ok := m.interferenceFast(p)
	if !ok {
		fDRAM, fL3, fL2, fEU = m.interference(p)
	}
	c := &m.lcpus[p]
	consumed := 0.0

	for consumed < budget {
		if !t.nextItem() {
			t.block()
			break
		}
		if t.cur.SleepNs > 0 {
			// I/O wait: the thread leaves the CPU at the current point
			// within the tick and wakes SleepNs later.
			elapsedNs := int64(consumed / budget * m.tickNsF)
			t.beginSleep(m.now + elapsedNs + t.cur.SleepNs)
			break
		}

		exec := t.rem.ComputeCycles * fEU
		var memStall, dramStall float64
		if !t.remPure {
			exec, memStall, dramStall = m.effectiveCostMem(&t.rem, exec, fDRAM, fL3, fL2)
		}
		total := exec + memStall
		if total <= 0 {
			// Degenerate zero-cost item: complete instantly.
			t.finishItem(m.now + int64(consumed/budget*m.tickNsF))
			continue
		}
		avail := budget - consumed
		if total <= avail {
			var loads, stores, dramLoads int64
			if !t.remPure {
				loads = t.rem.Loads()
				stores = t.rem.Stores()
				dramLoads = t.rem.Acc[workload.DRAM].Loads
				m.dramBytesTick += t.rem.DRAMBytes()
			}
			m.attribute(c, p, t.rem.ComputeCycles,
				float64(loads), float64(stores), float64(dramLoads),
				exec, memStall, dramStall)
			consumed += total
			doneNs := m.now + int64(consumed/budget*m.tickNsF)
			t.finishItem(doneNs)
		} else {
			frac := avail / total
			// Pure-compute items skip the per-level rounding loop and the
			// subtract loop below: scaling and subtracting zero access
			// counts yields zero counts exactly. The non-pure branch is
			// Cost.Scale written in place, fused with the subtraction and
			// with the load/store totals the attribution needs, so the
			// access array is walked once instead of three times. The
			// per-entry zero guards skip exact no-ops: with v == 0 the
			// rounded portion is int64(+0.5) == 0 and the subtract-and-
			// clamp leaves zero in place.
			pCompute := t.rem.ComputeCycles * frac
			t.rem.ComputeCycles -= pCompute
			if t.rem.ComputeCycles < 0 {
				t.rem.ComputeCycles = 0
			}
			var pLoads, pStores, pDRAMLoads, pDRAMBytes int64
			if !t.remPure {
				for l := range t.rem.Acc {
					a := &t.rem.Acc[l]
					if v := a.Loads; v != 0 {
						part := int64(float64(v)*frac + 0.5)
						pLoads += part
						if workload.Level(l) == workload.DRAM {
							pDRAMLoads = part
							pDRAMBytes += part * workload.CacheLineBytes
						}
						a.Loads = v - part
						if a.Loads < 0 {
							a.Loads = 0
						}
					}
					if v := a.Stores; v != 0 {
						part := int64(float64(v)*frac + 0.5)
						pStores += part
						if workload.Level(l) == workload.DRAM {
							pDRAMBytes += part * workload.CacheLineBytes
						}
						a.Stores = v - part
						if a.Stores < 0 {
							a.Stores = 0
						}
					}
				}
				m.dramBytesTick += pDRAMBytes
			}
			pExec, pMem, pDRAM := exec*frac, memStall*frac, dramStall*frac
			m.attribute(c, p, pCompute,
				float64(pLoads), float64(pStores), float64(pDRAMLoads),
				pExec, pMem, pDRAM)
			consumed = budget
		}
	}

	// Duty-cycle accumulation happens inside attribute; here we only
	// account total busy time for utilization and per-thread usage.
	c.busyCycles += consumed
	c.execs++
	t.ConsumedCycles += consumed
}

// attribute charges an executed cost chunk to CPU p's counters. The
// caller precomputes the retired-instruction totals (loads, stores,
// dramLoads) during its single walk over the chunk's access counts; pure
// chunks pass exact zeros.
func (m *Machine) attribute(c *lcpu, p int, compute, loads, stores, dramLoads, exec, memStall, dramStall float64) {
	c.counters.Cycles += exec + memStall
	c.counters.Instructions += compute + loads + stores
	c.counters.Loads += loads
	c.counters.Stores += stores

	// Stall-counting events track the effective memory stall cycles. A
	// zero stall contributes 0*(1+noise) = ±0.0, and x += ±0.0 leaves x
	// bit-unchanged (the operands here are never -0.0), so the guards
	// skip only exact no-ops.
	if memStall != 0 {
		c.counters.StallsMemAny += memStall * (1 + c.noise[nStallsMemAny])
	}
	if dramStall != 0 {
		c.counters.StallsL3Miss += dramStall * (1 + c.noise[nStallsL3Miss])
	}

	// CYCLES_MEM_ANY adds the execute-overlap window on top of stalls.
	c.counters.CyclesMemAny += (memStall + cyclesMemAnyExecFrac*exec) *
		(1 + c.noise[nCyclesMemAny])

	// CYCLES_L3_MISS is an occupancy count: cycles with >=1 outstanding
	// L3 miss. Per-access occupancy grows with the thread's own issue
	// pressure (overlapping misses keep the window open) and shrinks
	// slightly under sibling interference (miss-level parallelism
	// degrades). This occupancy-vs-stall distinction is what produces the
	// weak negative correlation of event 0x02A3 in Table 1.
	// With no DRAM loads the contribution is 0*occ*(1+noise) = ±0.0 —
	// an exact no-op (occ >= 0 after the clamp) — so the occupancy math
	// and the sibling lookup are skipped entirely.
	if dramLoads != 0 {
		sib := &m.lcpus[m.siblingOf[p]]
		ownMem := c.memDuty
		occ := dramCycles * (occupancyBase +
			occupancyOwnMem*ownMem -
			occupancySibMem*sib.memDuty)
		if occ < 0 {
			occ = 0
		}
		c.counters.CyclesL3Miss += dramLoads * occ * (1 + c.noise[nCyclesL3Miss])
	}

	// Duty-cycle accumulation for the sibling's next tick.
	c.nextMemStall += memStall
	c.nextExec += exec
}

// bandwidthFactor converts last tick's DRAM traffic into a latency
// multiplier. Below ~80% utilization the penalty is negligible; it grows
// sharply as the bus saturates (open-loop M/D/1-style knee).
func (m *Machine) bandwidthFactor(bytesLastTick int64) float64 {
	if bytesLastTick == m.bwInBytes {
		return m.bwOutFactor
	}
	m.bwInBytes = bytesLastTick
	m.bwOutFactor = rawBandwidthFactor(bytesLastTick, m.bwCapBytes)
	return m.bwOutFactor
}

// rawBandwidthFactor is the unmemoized curve behind bandwidthFactor.
func rawBandwidthFactor(bytesLastTick int64, cap float64) float64 {
	if cap <= 0 {
		return 1
	}
	u := float64(bytesLastTick) / cap
	if u < 0.8 {
		return 1 + 0.05*u
	}
	if u > 0.98 {
		u = 0.98
	}
	return 1.04 + 0.5*(u-0.8)/(1-u)
}

// maybeUpdateNoise advances the per-counter OU noise states.
func (m *Machine) maybeUpdateNoise() {
	if m.lastNoiseUpdate >= 0 && m.now < m.lastNoiseUpdate+noiseIntervalNs {
		return
	}
	m.updateNoiseAt(m.now)
}

// updateNoiseAt performs one noise update as of tick start t, consuming
// exactly one NormFloat64 per (lcpu, counter).
func (m *Machine) updateNoiseAt(t int64) {
	m.lastNoiseUpdate = t
	rho, drive := m.noiseRho, m.noiseDrive
	for p := range m.lcpus {
		for i := range m.lcpus[p].noise {
			x := m.lcpus[p].noise[i]
			x = rho*x + m.noiseSigmas[i]*drive*m.rng.NormFloat64()
			m.lcpus[p].noise[i] = x
		}
	}
}

// replayNoise performs the noise updates that tick-by-tick execution would
// have performed at the skipped tick starts in [m.now, target): each fires
// at the first tick boundary >= lastNoiseUpdate + noiseIntervalNs, drawing
// the same RNG values at the same times, so the stochastic stream is
// byte-identical to not having skipped.
func (m *Machine) replayNoise(target int64) {
	for {
		next := m.now // a machine that has never updated does so immediately
		if m.lastNoiseUpdate >= 0 {
			next = m.ceilTick(m.lastNoiseUpdate + noiseIntervalNs)
			if next <= m.lastNoiseUpdate {
				next = m.lastNoiseUpdate + m.cfg.TickNs
			}
		}
		if next >= target {
			return
		}
		m.updateNoiseAt(next)
	}
}

// Utilization returns the busy fraction of logical CPU p between two
// cumulative busy-cycle snapshots taken windowNs apart.
func (m *Machine) Utilization(prevBusy float64, p int, windowNs int64) float64 {
	if windowNs <= 0 {
		return 0
	}
	delta := m.lcpus[p].busyCycles - prevBusy
	return clamp01(delta / (m.cfg.FreqGHz * float64(windowNs)))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Describe returns a human-readable one-line machine description.
func (m *Machine) Describe() string {
	return fmt.Sprintf("%s @ %.1f GHz, tick %d ns", m.topo, m.cfg.FreqGHz, m.cfg.TickNs)
}
