package machine

// This file implements the interval-batched loaded path: the IdleSkipper
// idea extended to stretches where threads are runnable. Between
// scheduling events — event-queue firings (wakeups, periodic daemon
// ticks, cgroup writes, HPE sampling boundaries), noise updates,
// timeslice rotations, steal-period boundaries, and runqueue membership
// changes — the per-CPU assignment is provably fixed, so the machine can
// advance through a tight inner loop that touches only the logical CPUs
// carrying work, instead of re-deriving the assignment and scanning the
// full topology every tick.
//
// The equivalence contract (DESIGN.md §11): the batched path performs
// the *identical* floating-point operations in the *identical* order as
// per-tick stepping. Nothing is integrated approximately; the batching
// elides only operations that are provably no-ops on the skipped ticks:
//
//   - the event-queue check, guarded per tick by a single peek;
//   - the noise update, guarded by the precomputed next-update deadline;
//   - the scheduler's Assign call, guarded by the horizon the scheduler
//     itself computed (no rotation, no effective steal, no boundary
//     observation inside it) plus a generation counter that detects any
//     runqueue change the moment a thread blocks, sleeps, wakes, exits,
//     or changes affinity;
//   - the full-width exec and duty-commit scans, restricted to the
//     assigned CPUs — every other logical CPU's duty state is zero and
//     committing zero over zero is the identity.
//
// Because the elided work is a no-op and the retained work is the same
// code (exec, attribute, bandwidthFactor, the duty commit) running on
// the same state in the same order, all observable outputs — counters,
// completions, latencies, telemetry, RNG stream position — are
// bit-identical with batching on or off. The equiv package and the
// registry-wide dump tests pin this.

// IntervalScheduler is optionally implemented by TickSchedulers that can
// prove their assignment stays fixed for a while. When the installed
// scheduler implements it and Config.IntervalBatching is set, the
// machine follows each ordinary step with a batched run of ticks that
// reuse the step's assignment.
type IntervalScheduler interface {
	TickScheduler

	// BeginInterval is called immediately after every Assign call on a
	// loaded tick, before any thread executes, with no runqueue
	// mutations in between. It returns:
	//
	//   - horizon: how many FURTHER ticks (beyond the one whose Assign
	//     just ran) the assignment stays valid with no per-tick
	//     scheduler side effects beyond those EndInterval replays (0 =
	//     none; call Assign again next tick). The horizon must stop
	//     short of the next timeslice rotation on any multi-thread
	//     runqueue, the next steal-period boundary whose steal could
	//     move a thread or whose telemetry observes queue depths, and
	//     anything else that would change the assignment or record
	//     per-tick state.
	//   - assigned: exactly the logical CPUs the Assign call wrote, in
	//     ascending order. The slice is owned by the scheduler and valid
	//     until the matching EndInterval; it must be a snapshot that
	//     later runqueue changes do not mutate.
	//   - gen: a generation counter the machine polls before each
	//     batched tick. The scheduler must bump it on any runqueue
	//     membership or order change (thread wake, block, sleep, exit,
	//     migration, steal, affinity change). A change ends the interval
	//     before the next tick; the tick in which the change occurred
	//     still runs to completion, exactly as per-tick stepping would.
	BeginInterval() (horizon int64, assigned []int32, gen *uint64)

	// EndInterval is called once after BeginInterval with the number of
	// batched ticks that actually ran (0 <= ran <= horizon). The
	// scheduler brings every per-tick side effect it would have had over
	// those ticks — tick counters, timeslice accounting — up to date, so
	// its state is indistinguishable from having had Assign called for
	// each tick. All replayed ticks started with the runqueues exactly
	// as they were at BeginInterval: any change ends the interval after
	// the tick it happened in, and the change itself happened after that
	// tick's (virtual) Assign already ran.
	EndInterval(ran int64)
}

// stepInterval executes one loaded tick against an IntervalScheduler and
// then batches as many follow-on ticks as the scheduler's horizon and the
// machine's own event/noise deadlines allow. It replaces step() entirely
// when the scheduler opts in: the opening tick already runs through the
// narrow assigned-CPU scans (the m.active set proves the skipped commits
// are identities), so even stretches whose horizon is zero avoid the
// full-topology work.
func (m *Machine) stepInterval(end int64) {
	// Fire all events due at or before the current tick start.
	for {
		ev, ok := m.events.popDue(m.now)
		if !ok {
			break
		}
		ev.fn(m.now)
	}

	m.maybeUpdateNoise()

	// Events left nothing runnable: the rest of the tick is idle, so take
	// the aggregate path instead of consulting the scheduler.
	if m.runnable == 0 && m.skipper != nil {
		m.skipper.SkipIdleTicks(1)
		m.settleIdleState()
		m.now += m.cfg.TickNs
		return
	}

	// Ask the scheduler for this tick's assignment. Entries outside the
	// assigned set may hold stale pointers from earlier ticks; the narrow
	// scans below never read them, so no clearing pass is needed.
	m.sched.Assign(m.now, m.assign)
	horizon, assigned, gen := m.interval.BeginInterval()
	// Capture the generation before any thread executes: a block, wake or
	// exit during the opening tick must end the interval before batching.
	g0 := *gen

	m.stepOpening(assigned)

	// The opening tick ran maybeUpdateNoise, so lastNoiseUpdate >= 0 and
	// the next update is due exactly at the first tick starting at or
	// after this deadline.
	noiseDeadline := m.lastNoiseUpdate + noiseIntervalNs
	var ran int64
	for ran < horizon && m.now < end && m.now < noiseDeadline && *gen == g0 {
		// An event due at or before this tick's start must fire before
		// the tick runs; events scheduled by completion callbacks during
		// the stretch surface here too.
		if next, ok := m.events.peekTime(); ok && next <= m.now {
			break
		}
		m.stepAssigned(assigned)
		ran++
	}
	m.batchedTicks += ran
	m.interval.EndInterval(ran)
}

// stepOpening executes the tick whose Assign just ran, touching only the
// assigned CPUs plus the CPUs still carrying duty state from earlier
// ticks (m.active). It mirrors step() exactly with the exec scan
// narrowed to the assigned CPUs — every other CPU's assignment is empty —
// and the duty commit narrowed to assigned ∪ active: every CPU outside
// that union has zero duty and zero pending accumulators, and committing
// zero over zero is the identity (clamp01(0/budget) == +0.0).
func (m *Machine) stepOpening(assigned []int32) {
	m.bwFactor = m.bandwidthFactor(m.dramBytesTick)
	m.dramBytesTick = 0

	anyExec := false
	for _, p := range assigned {
		t := m.assign[p]
		if t != nil && t.state == Runnable && t.lastExecTick != m.now {
			t.lastExecTick = m.now
			m.exec(int(p), t)
			anyExec = true
		}
	}

	if anyExec || !m.dutyClean {
		// Sorted-merge walk over assigned ∪ active: CPUs leaving the
		// assigned set (in active only) have their stale duty committed
		// to zero, exactly as the full-width loop would.
		budget := m.cyclesPerTick
		i, j := 0, 0
		for i < len(assigned) || j < len(m.active) {
			var p int32
			switch {
			case j >= len(m.active):
				p = assigned[i]
				i++
			case i >= len(assigned):
				p = m.active[j]
				j++
			case assigned[i] < m.active[j]:
				p = assigned[i]
				i++
			case assigned[i] > m.active[j]:
				p = m.active[j]
				j++
			default:
				p = assigned[i]
				i++
				j++
			}
			if c := &m.lcpus[p]; !c.commitDutyFast() {
				c.commitDutyMiss(budget)
			}
		}
		m.dutyClean = !anyExec
	}
	// After the commit only assigned CPUs can carry nonzero duty.
	m.active = append(m.active[:0], assigned...)

	m.now += m.cfg.TickNs
}

// stepAssigned executes one batched tick against a fixed assignment,
// touching only the assigned CPUs. It mirrors step() exactly with the
// event pop, noise check and Assign call elided (the caller proved them
// no-ops) and the exec/commit scans narrowed to the assigned CPUs —
// valid because the opening tick's commit left m.active == assigned, so
// every other CPU's duty state is zero and stays zero.
func (m *Machine) stepAssigned(assigned []int32) {
	m.bwFactor = m.bandwidthFactor(m.dramBytesTick)
	m.dramBytesTick = 0

	anyExec := false
	for _, p := range assigned {
		t := m.assign[p]
		if t != nil && t.state == Runnable && t.lastExecTick != m.now {
			t.lastExecTick = m.now
			m.exec(int(p), t)
			anyExec = true
		}
	}

	if anyExec || !m.dutyClean {
		budget := m.cyclesPerTick
		for _, p := range assigned {
			if c := &m.lcpus[p]; !c.commitDutyFast() {
				c.commitDutyMiss(budget)
			}
		}
		m.dutyClean = !anyExec
	}

	m.now += m.cfg.TickNs
}
