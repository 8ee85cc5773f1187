package core

import (
	"fmt"
	"sort"
	"strings"

	"github.com/holmes-colocation/holmes/internal/cgroupfs"
	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/telemetry"
	"github.com/holmes-colocation/holmes/internal/workload"
)

// Daemon is the Holmes user-space daemon: the metric monitor plus the
// interference-aware CPU scheduler, invoked every Config.IntervalNs of
// simulated time.
type Daemon struct {
	cfg Config
	m   *machine.Machine
	k   *kernel.Kernel
	fs  *cgroupfs.FS
	mon *Monitor

	// reserved is the LC CPU set (Table 2: reserved CPUs host
	// latency-critical services; batch jobs may never run there).
	reserved cpuid.Mask
	// lcPids are the registered latency-critical service processes.
	lcPids map[int]*kernel.Process
	// containers tracks live batch containers by cgroup path.
	containers map[string]*kernel.Process

	// siblingAllowed[p], for an LC CPU p, reports whether batch jobs may
	// currently use p's hyperthread sibling.
	siblingAllowed map[int]bool
	// quietSince[p] is when VPI(p) last dropped below E; -1 while >= E.
	quietSince map[int]int64

	stop    func()
	stopped bool

	// Overhead modeling: the daemon's own work runs on this process.
	daemonProc *kernel.Process

	// tel holds pre-resolved telemetry handles (all nil when disabled);
	// telemetryCycles accumulates the modeled cost of recording.
	tel             daemonTelemetry
	telemetryCycles float64

	// Causal span bookkeeping: borrowSpan[p] is the open SiblingBorrow
	// span covering the interval batch may use LC CPU p's sibling;
	// lastDecisionSpan parents the next cgroupfs write onto the decision
	// that caused it; safeModeSpan covers the current safe-mode interval.
	borrowSpan       map[int]uint64
	lastDecisionSpan uint64
	safeModeSpan     uint64

	// expansionOrder records CPUs acquired by pool expansion, newest
	// last, so shrinking releases them in reverse order.
	expansionOrder []int

	// Counter-health watchdog (Config.WatchdogWindow > 0). wdLast/wdRun
	// track, per logical CPU, the previous reading and how many
	// consecutive ticks it has repeated exactly while the CPU was busy —
	// real VPI streams carry continuous measurement noise, so a long
	// identical run (including an all-zero run on a CPU doing memory
	// work) means the counters, not the workload, went flat.
	wdLast     []float64
	wdRun      []int
	wdSamples  int   // busy-CPU samples accumulated this window
	wdSuspects int   // of which looked implausible
	lastBadNs  int64 // last implausible sample (gates safe-mode exit)

	// Safe mode: conservative static partition while counters are
	// untrusted — every sibling withheld, reserved pool frozen.
	safeMode        bool
	safeModeEntries int64
	safeModeExits   int64

	// Cgroup re-scan reconciliation (Config.RescanIntervalNs > 0).
	lastRescanNs  int64
	rescans       int64
	rescanRepairs int64

	// Statistics.
	invocations   int64
	deallocations int64
	reallocations int64
	expansions    int64
	shrinks       int64
	// lastDeallocNs records when the most recent sibling eviction was
	// applied (used by the convergence experiment).
	lastDeallocNs int64
}

// Start launches Holmes on a machine. The kernel and cgroup filesystem
// are the daemon's only interfaces to the system.
func Start(k *kernel.Kernel, fs *cgroupfs.FS, cfg Config) (*Daemon, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := k.Machine()
	if cfg.ReservedCPUs > m.Topology().PhysicalCores() {
		return nil, fmt.Errorf("core: %d reserved CPUs exceed the %d physical cores",
			cfg.ReservedCPUs, m.Topology().PhysicalCores())
	}
	mon, err := NewMonitor(m, cfg)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:            cfg,
		m:              m,
		k:              k,
		fs:             fs,
		mon:            mon,
		lcPids:         map[int]*kernel.Process{},
		containers:     map[string]*kernel.Process{},
		siblingAllowed: map[int]bool{},
		quietSince:     map[int]int64{},
		borrowSpan:     map[int]uint64{},
		lastDeallocNs:  -1,
	}
	// Reserve the first ReservedCPUs logical CPUs, one per physical core
	// (thread 0 of cores 0..n-1 in the Linux enumeration), so their
	// siblings are distinct CPUs Holmes can lend out.
	for i := 0; i < cfg.ReservedCPUs; i++ {
		d.reserved.Set(i)
		d.siblingAllowed[i] = true
		d.quietSince[i] = m.Now()
	}

	// Telemetry handles resolve before the cgroup watch is installed so
	// discovery events from adoption are traced too.
	d.tel.resolve(cfg.Telemetry)
	d.tel.resolveSpans(cfg.Spans, cfg.Telemetry, cfg.SpanNode)
	if d.tel.enabled() {
		cfg.Telemetry.PublishInfo("holmes.E", fmt.Sprintf("%g", cfg.E))
		cfg.Telemetry.PublishInfo("holmes.T", fmt.Sprintf("%g", cfg.T))
		cfg.Telemetry.PublishInfo("holmes.interval_ns", fmt.Sprintf("%d", cfg.IntervalNs))
		cfg.Telemetry.PublishInfo("holmes.reserved_cpus", fmt.Sprintf("%d", cfg.ReservedCPUs))
		cfg.Telemetry.PublishInfo("holmes.trigger_metric", string(cfg.TriggerMetric))
	}

	if cfg.WatchdogWindow > 0 {
		n := m.Topology().LogicalCPUs()
		d.wdLast = make([]float64, n)
		d.wdRun = make([]int, n)
	}
	d.lastRescanNs = m.Now()

	// Discover batch containers through the cgroup tree (paper §4.2:
	// "Holmes monitors directories in the cgroup file system to detect
	// batch jobs"). With a fault filter installed, each event is
	// delivered 0..2 times — the daemon's discovery path has to survive
	// losses (the re-scan repairs them) and duplicates (discovery is
	// keyed by path, so redelivery is a no-op).
	if cfg.CgroupFault != nil {
		fs.Watch(func(ev cgroupfs.Event) {
			for n := d.cfg.CgroupFault.Deliveries(); n > 0; n-- {
				d.onCgroupEvent(ev)
			}
		})
	} else {
		fs.Watch(d.onCgroupEvent)
	}
	d.adoptExistingContainers()

	// Trace the initial sibling state after adoption so a decision log
	// always opens with the granted baseline the later revocations refer
	// back to.
	for i := 0; i < cfg.ReservedCPUs; i++ {
		d.emit(telemetry.Event{Type: telemetry.SiblingGranted, CPU: i, Threshold: cfg.E})
		d.borrowSpan[i] = d.tel.spanStart(telemetry.Span{
			Kind: telemetry.SpanSiblingBorrow, StartNs: m.Now(), CPU: i})
	}
	d.updatePoolGauges()

	// Overhead modeling: the daemon runs as a process whose thread
	// executes a small work item per invocation.
	if cfg.DaemonCPU >= 0 {
		d.daemonProc = k.Spawn("holmesd", 1)
		_ = d.daemonProc.SetAffinity(cpuid.MaskOf(cfg.DaemonCPU))
	}

	d.stop = m.SchedulePeriodic(cfg.IntervalNs, d.tick)
	return d, nil
}

// Stop halts the daemon; affinities keep their last values.
func (d *Daemon) Stop() {
	if !d.stopped {
		d.stopped = true
		d.stop()
	}
}

// ReservedCPUs returns the current reserved (LC) CPU mask.
func (d *Daemon) ReservedCPUs() cpuid.Mask { return d.reserved }

// Monitor exposes the metric monitor (read-only use).
func (d *Daemon) Monitor() *Monitor { return d.mon }

// Stats returns (invocations, deallocations, reallocations, expansions).
func (d *Daemon) Stats() (inv, dealloc, realloc, expand int64) {
	return d.invocations, d.deallocations, d.reallocations, d.expansions
}

// Shrinks returns the number of pool contractions (EnableShrink only).
func (d *Daemon) Shrinks() int64 { return d.shrinks }

// LastDeallocNs returns the time of the most recent sibling eviction, or
// -1 if none happened yet.
func (d *Daemon) LastDeallocNs() int64 { return d.lastDeallocNs }

// CPUTimeNs returns the daemon's own accumulated CPU time (§6.6 overhead
// accounting), or 0 when overhead modeling is disabled.
func (d *Daemon) CPUTimeNs() float64 {
	if d.daemonProc == nil {
		return 0
	}
	return d.daemonProc.CPUTimeNs()
}

// SiblingAllowed reports whether batch may use the sibling of LC CPU p.
func (d *Daemon) SiblingAllowed(p int) bool { return d.siblingAllowed[p] }

// RegisterLC registers a latency-critical service by PID (paper §5: the
// administrator specifies the PID at service launch) and applies
// Algorithm 1: the service is allocated the reserved CPUs.
func (d *Daemon) RegisterLC(pid int) error {
	p := d.k.Process(pid)
	if p == nil {
		return fmt.Errorf("core: no such process %d", pid)
	}
	d.lcPids[pid] = p
	d.emit(telemetry.Event{Type: telemetry.LCRegistered, CPU: -1, PID: pid})
	d.tel.gauge(d.tel.lcServices, float64(len(d.lcPids)))
	return p.SetAffinity(d.reserved)
}

// BatchMask returns the CPUs batch jobs may currently use: every
// non-reserved CPU whose LC sibling (if any) permits it.
func (d *Daemon) BatchMask() cpuid.Mask {
	topo := d.m.Topology()
	all := cpuid.FullMask(topo.LogicalCPUs())
	mask := all.Subtract(d.reserved)
	for _, lc := range d.reserved.CPUs() {
		if !d.siblingAllowed[lc] {
			mask.Clear(topo.SiblingOf(lc))
		}
	}
	return mask
}

// onCgroupEvent implements batch-job discovery (Algorithm 1 for batch)
// and the batch-exit half of Algorithm 3.
func (d *Daemon) onCgroupEvent(ev cgroupfs.Event) {
	if d.stopped || !strings.HasPrefix(ev.Path, d.cfg.YarnRoot+"/") {
		return
	}
	switch ev.Type {
	case cgroupfs.PidsChanged:
		g := d.fs.Lookup(ev.Path)
		if g == nil {
			return
		}
		for _, pid := range g.Pids() {
			if _, known := d.containers[ev.Path]; known {
				continue
			}
			proc := d.k.Process(pid)
			if proc == nil {
				continue
			}
			d.containers[ev.Path] = proc
			d.tel.inc(d.tel.batchFound)
			d.emit(telemetry.Event{Type: telemetry.BatchDiscovered, CPU: -1, PID: pid, Detail: ev.Path})
			d.tel.gauge(d.tel.containers, float64(len(d.containers)))
			// Launching allocation: non-reserved CPUs, with LC siblings
			// only as currently permitted. The kernel's placement
			// prefers the least-loaded allowed CPU, which fills
			// non-sibling CPUs before contended siblings.
			_ = proc.SetAffinity(d.BatchMask())
		}
	case cgroupfs.GroupRemoved:
		if _, ok := d.containers[ev.Path]; ok {
			delete(d.containers, ev.Path)
			d.tel.gauge(d.tel.containers, float64(len(d.containers)))
			// Algorithm 3: when batch work on non-sibling CPUs exits,
			// remaining containers spread back onto the freed CPUs.
			// Affinity masks already include them; the kernel's idle
			// stealing performs the migration.
		}
	}
}

// adoptExistingContainers picks up containers created before Holmes
// started.
func (d *Daemon) adoptExistingContainers() {
	root := d.fs.Lookup(d.cfg.YarnRoot)
	if root == nil {
		return
	}
	root.Walk(func(g *cgroupfs.Group) {
		for _, pid := range g.Pids() {
			proc := d.k.Process(pid)
			if proc == nil {
				continue
			}
			d.containers[g.Path()] = proc
			d.tel.inc(d.tel.batchFound)
			d.emit(telemetry.Event{Type: telemetry.BatchDiscovered, CPU: -1, PID: pid, Detail: g.Path()})
			_ = proc.SetAffinity(d.BatchMask())
		}
	})
}

// tick is one monitor + scheduler invocation.
func (d *Daemon) tick(nowNs int64) {
	if d.stopped {
		return
	}
	d.invocations++
	d.tel.inc(d.tel.invocations)
	d.mon.Sample(nowNs)
	d.reapExitedLC()

	if d.cfg.RescanIntervalNs > 0 && nowNs-d.lastRescanNs >= d.cfg.RescanIntervalNs {
		d.lastRescanNs = nowNs
		d.rescanCgroups()
	}
	if d.cfg.WatchdogWindow > 0 {
		d.watchdogScan(nowNs)
	}
	if d.safeMode {
		// Safe mode: no sibling decisions, no pool changes — the static
		// partition holds until the counter stream looks sane again.
		d.chargeOverhead()
		return
	}

	changed := false
	sampleTick := d.tel.enabled() && d.invocations%monitorSampleEvery == 0

	// Algorithm 2, lines 1-16: per-LC-CPU sibling control by the
	// interference signal (VPI for Holmes; raw usage for the ablation).
	for lc := d.reserved.Next(0); lc >= 0; lc = d.reserved.Next(lc + 1) {
		vpi, usage := d.mon.VPI(lc), d.mon.Usage(lc)
		d.tel.observe(d.tel.lcVPI, vpi)
		if sampleTick {
			d.emit(telemetry.Event{Type: telemetry.MonitorSample, CPU: lc, VPI: vpi, Usage: usage})
		}
		interfered := false
		threshold := d.cfg.E
		if d.cfg.TriggerMetric == MetricUsage {
			threshold = d.cfg.UsageEvictThreshold
			interfered = usage >= threshold
		} else {
			interfered = vpi >= threshold
		}
		if interfered {
			d.quietSince[lc] = -1
			if d.siblingAllowed[lc] {
				d.siblingAllowed[lc] = false
				d.deallocations++
				d.lastDeallocNs = nowNs
				d.tel.inc(d.tel.deallocations)
				d.emit(telemetry.Event{Type: telemetry.SiblingRevoked,
					CPU: lc, VPI: vpi, Usage: usage, Threshold: threshold})
				d.traceDecision(nowNs, lc, vpi, usage, threshold, "revoke-sibling")
				if id, ok := d.borrowSpan[lc]; ok {
					d.tel.spanFinish(id, nowNs)
					delete(d.borrowSpan, lc)
				}
				changed = true
			}
			continue
		}
		if d.quietSince[lc] < 0 {
			d.quietSince[lc] = nowNs
		}
		if !d.siblingAllowed[lc] && nowNs-d.quietSince[lc] >= d.cfg.SNs {
			d.siblingAllowed[lc] = true
			d.reallocations++
			d.tel.inc(d.tel.reallocations)
			d.emit(telemetry.Event{Type: telemetry.SiblingGranted,
				CPU: lc, VPI: vpi, Usage: usage, Threshold: threshold})
			d.traceDecision(nowNs, lc, vpi, usage, threshold, "grant-sibling")
			d.borrowSpan[lc] = d.tel.spanStart(telemetry.Span{
				Kind: telemetry.SpanSiblingBorrow, StartNs: nowNs,
				CPU: lc, Parent: d.lastDecisionSpan})
			changed = true
		}
	}

	// Algorithm 2, lines 17-20: reserved-pool expansion when usage
	// exceeds T of capacity.
	if d.expandIfNeeded(nowNs) {
		changed = true
	}
	if d.cfg.EnableShrink && d.shrinkIfIdle() {
		changed = true
	}

	if changed {
		d.applyBatchMask()
		d.updatePoolGauges()
	}
	d.chargeOverhead()
}

// traceDecision records the causal chain behind one sibling decision —
// the counter sample that fed the VPI estimate that drove the mask
// decision — and leaves the decision span as the parent for the cgroupfs
// write that applies it. Only changed decisions are traced, so the span
// ring holds signal, not the steady-state sampling loop.
func (d *Daemon) traceDecision(nowNs int64, lc int, vpi, usage, threshold float64, action string) {
	sample := d.tel.span(telemetry.Span{Kind: telemetry.SpanCounterSample,
		StartNs: nowNs, EndNs: nowNs, CPU: lc, Value: usage})
	est := d.tel.span(telemetry.Span{Kind: telemetry.SpanVPIEstimate,
		Parent: sample, StartNs: nowNs, EndNs: nowNs, CPU: lc, Value: vpi})
	d.lastDecisionSpan = d.tel.span(telemetry.Span{Kind: telemetry.SpanMaskDecision,
		Parent: est, StartNs: nowNs, EndNs: nowNs, CPU: lc,
		Name: action, Value: threshold})
}

// chargeOverhead models the invocation's own CPU cost, plus the modeled
// cost of whatever telemetry this tick recorded. The telemetry share is
// accumulated separately so §6.6 can split daemon-vs-telemetry.
func (d *Daemon) chargeOverhead() {
	telCycles := d.tel.drainCycles()
	d.telemetryCycles += telCycles
	if d.daemonProc != nil && !d.daemonProc.Exited() {
		n := int64(d.m.Topology().LogicalCPUs())
		c := workload.Compute(float64(60*n) + 800 + telCycles)
		c.Add(workload.MemRead(workload.L2, n/4+2))
		d.daemonProc.Threads()[0].HW.Push(workload.Work(c))
	}
}

// reapExitedLC implements the LC half of Algorithm 3: when a registered
// service exits, its siblings return to batch jobs.
func (d *Daemon) reapExitedLC() {
	// The common tick has nothing to reap: check without building the
	// sorted pid list, which only fixes the order of the exit events.
	exited := false
	for _, p := range d.lcPids {
		if p.Exited() {
			exited = true
			break
		}
	}
	if !exited {
		return
	}
	changed := false
	for _, pid := range d.sortedLCPids() {
		if p := d.lcPids[pid]; p.Exited() {
			delete(d.lcPids, pid)
			d.emit(telemetry.Event{Type: telemetry.LCExited, CPU: -1, PID: pid})
			changed = true
		}
	}
	if changed {
		d.tel.gauge(d.tel.lcServices, float64(len(d.lcPids)))
	}
	if changed && len(d.lcPids) == 0 {
		for _, lc := range d.reserved.CPUs() {
			if !d.siblingAllowed[lc] {
				d.siblingAllowed[lc] = true
				d.reallocations++
				d.tel.inc(d.tel.reallocations)
				d.emit(telemetry.Event{Type: telemetry.SiblingGranted, CPU: lc, Threshold: d.cfg.E})
				d.borrowSpan[lc] = d.tel.spanStart(telemetry.Span{
					Kind: telemetry.SpanSiblingBorrow, StartNs: d.m.Now(), CPU: lc})
			}
		}
		d.applyBatchMask()
		d.updatePoolGauges()
	}
}

// expandIfNeeded grows the reserved pool by one CPU when average reserved
// usage exceeds T. The chosen CPU is never a sibling of a current LC CPU;
// batch jobs are evicted from it (and its sibling starts blocked).
func (d *Daemon) expandIfNeeded(nowNs int64) bool {
	var usage float64
	for lc := d.reserved.Next(0); lc >= 0; lc = d.reserved.Next(lc + 1) {
		usage += d.mon.SmoothedUsage(lc)
	}
	if usage <= d.cfg.T*float64(d.reserved.Count()) {
		return false
	}
	cpus := d.reserved.CPUs()
	// Capacity beyond the services' live thread count serves nothing:
	// §4.2's thread-to-processor monitoring bounds useful growth (the
	// paper expands "until the capacity is enough to serve the
	// latency-critical service").
	lcThreads := 0
	for _, p := range d.lcPids {
		lcThreads += len(p.Threads())
	}
	if len(cpus) >= lcThreads {
		return false
	}
	topo := d.m.Topology()
	// Candidates: not reserved, not a sibling of a reserved CPU.
	forbidden := d.reserved
	for _, lc := range cpus {
		forbidden.Set(topo.SiblingOf(lc))
	}
	best, bestUsage := -1, 2.0
	for p := 0; p < topo.LogicalCPUs(); p++ {
		if forbidden.Has(p) {
			continue
		}
		if u := d.mon.Usage(p); u < bestUsage {
			best, bestUsage = p, u
		}
	}
	if best < 0 {
		return false // nothing left to take
	}
	d.reserved.Set(best)
	d.siblingAllowed[best] = false // deallocate batch from the sibling
	d.quietSince[best] = -1
	d.expansionOrder = append(d.expansionOrder, best)
	d.expansions++
	d.tel.inc(d.tel.expansions)
	d.emit(telemetry.Event{Type: telemetry.PoolExpanded,
		CPU: best, Usage: usage / float64(len(cpus)), Threshold: d.cfg.T})
	d.lastDecisionSpan = d.tel.span(telemetry.Span{Kind: telemetry.SpanPoolExpand,
		StartNs: nowNs, EndNs: nowNs, CPU: best,
		Value: usage / float64(len(cpus))})
	// Extend every LC service onto the grown pool (pid order: affinity
	// changes migrate threads, so iteration order affects placement).
	for _, pid := range d.sortedLCPids() {
		_ = d.lcPids[pid].SetAffinity(d.reserved)
	}
	return true
}

// shrinkIfIdle releases the most recently expanded CPU when the reserved
// pool's smoothed usage would fit in a pool one CPU smaller with headroom
// (the inverse of the expansion rule, with hysteresis from the EWMA).
func (d *Daemon) shrinkIfIdle() bool {
	if len(d.expansionOrder) == 0 {
		return false
	}
	cpus := d.reserved.CPUs()
	var usage float64
	for _, lc := range cpus {
		usage += d.mon.SmoothedUsage(lc)
	}
	// Shrink only if the load would keep the smaller pool below T/2 —
	// well away from the expansion trigger, so the pool cannot flap.
	if usage >= d.cfg.T*float64(len(cpus)-1)/2 {
		return false
	}
	last := d.expansionOrder[len(d.expansionOrder)-1]
	d.expansionOrder = d.expansionOrder[:len(d.expansionOrder)-1]
	d.reserved.Clear(last)
	d.siblingAllowed[last] = true // the CPU and its sibling return to batch
	delete(d.quietSince, last)
	d.shrinks++
	d.tel.inc(d.tel.shrinks)
	d.emit(telemetry.Event{Type: telemetry.PoolShrunk,
		CPU: last, Usage: usage / float64(len(cpus)), Threshold: d.cfg.T / 2})
	d.lastDecisionSpan = d.tel.span(telemetry.Span{Kind: telemetry.SpanPoolShrink,
		StartNs: d.m.Now(), EndNs: d.m.Now(), CPU: last,
		Value: usage / float64(len(cpus))})
	if id, ok := d.borrowSpan[last]; ok {
		// The released CPU leaves the reserved pool; its borrow interval
		// ends with it.
		d.tel.spanFinish(id, d.m.Now())
		delete(d.borrowSpan, last)
	}
	for _, pid := range d.sortedLCPids() {
		_ = d.lcPids[pid].SetAffinity(d.reserved)
	}
	return true
}

// applyBatchMask pushes the current batch CPU set to every container, in
// sorted path order: each affinity change migrates threads onto whichever
// allowed CPU is least loaded *at that moment*, so map order here would
// make placement — and the whole run's latency distribution — vary from
// run to run.
func (d *Daemon) applyBatchMask() {
	mask := d.BatchMask()
	d.tel.span(telemetry.Span{Kind: telemetry.SpanCgroupWrite,
		Parent: d.lastDecisionSpan, StartNs: d.m.Now(), EndNs: d.m.Now(),
		CPU: -1, Name: "cpuset.cpus", Value: float64(mask.Count())})
	for _, path := range d.sortedContainerPaths() {
		proc := d.containers[path]
		if proc.Exited() {
			delete(d.containers, path)
			continue
		}
		_ = proc.SetAffinity(mask)
	}
}

// sortedContainerPaths returns the tracked container cgroup paths in
// sorted order, for deterministic iteration.
func (d *Daemon) sortedContainerPaths() []string {
	paths := make([]string, 0, len(d.containers))
	for path := range d.containers {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths
}

// Watchdog tuning. A reading is only evidence when its CPU executed work
// this interval (watchdogBusyFloor, a small floor rather than a majority
// threshold — bursty LC services rarely fill a 100 µs window): idle CPUs
// legitimately report zero. A CPU that did run something yet reads
// exactly zero means the counters, not the workload, went flat — a
// latency-critical service executing even one query issues loads and
// stores, so its true VPI is strictly positive — but one zero can be a
// benign sampling artifact, so it takes watchdogZeroRun consecutive
// zeros to count. A reading that repeats *exactly* (bit-identical) is
// normal for short stretches — counter noise has a finite update
// granularity — and implausible only past watchdogFlatRun consecutive
// ticks, the signature of a latched register.
const (
	watchdogBusyFloor = 0.02
	watchdogZeroRun   = 8
	watchdogFlatRun   = 256
)

// suspectFraction returns the safe-mode trip threshold with its default.
func (d *Daemon) suspectFraction() float64 {
	if d.cfg.WatchdogSuspectFraction <= 0 {
		return 0.5
	}
	return d.cfg.WatchdogSuspectFraction
}

// safeModeQuietNs returns how long the stream must stay plausible before
// safe mode lifts, defaulting to the sibling quiet period SNs.
func (d *Daemon) safeModeQuietNs() int64 {
	if d.cfg.SafeModeQuietNs > 0 {
		return d.cfg.SafeModeQuietNs
	}
	return d.cfg.SNs
}

// watchdogScan is the counter-health check, run every tick (including in
// safe mode, where it decides when to come back out). It inspects the
// reserved LC CPUs — the ones whose readings drive sibling evictions —
// and counts implausible samples over a tumbling window of busy samples.
func (d *Daemon) watchdogScan(nowNs int64) {
	maxVPI := d.cfg.WatchdogMaxVPI
	if maxVPI <= 0 {
		maxVPI = 100 * d.cfg.E
	}
	for _, lc := range d.reserved.CPUs() {
		vpi, usage := d.mon.VPI(lc), d.mon.Usage(lc)
		if usage < watchdogBusyFloor {
			// An idle CPU is evidence of nothing: reset the streak so a
			// quiet spell cannot accumulate into a false alarm.
			d.wdRun[lc] = 0
			d.wdLast[lc] = vpi
			continue
		}
		if vpi == d.wdLast[lc] {
			d.wdRun[lc]++
		} else {
			d.wdRun[lc] = 0
		}
		d.wdLast[lc] = vpi
		suspect := vpi < 0 || vpi > maxVPI ||
			(vpi == 0 && d.wdRun[lc] >= watchdogZeroRun) ||
			d.wdRun[lc] >= watchdogFlatRun
		d.wdSamples++
		if suspect {
			d.wdSuspects++
			d.lastBadNs = nowNs
		}
	}
	if d.wdSamples >= d.cfg.WatchdogWindow {
		frac := float64(d.wdSuspects) / float64(d.wdSamples)
		d.wdSamples, d.wdSuspects = 0, 0
		if !d.safeMode && frac >= d.suspectFraction() {
			d.enterSafeMode(nowNs, frac)
		}
	}
	if d.safeMode && nowNs-d.lastBadNs >= d.safeModeQuietNs() {
		d.exitSafeMode(nowNs)
	}
}

// enterSafeMode falls back to the conservative static partition: every
// LC sibling is withheld from batch (the fault-free worst case Holmes
// improves on) and the reserved pool freezes. Deliberately not counted
// as deallocations — these are defensive withdrawals on untrusted data,
// not Algorithm 2 decisions.
func (d *Daemon) enterSafeMode(nowNs int64, frac float64) {
	d.safeMode = true
	d.safeModeEntries++
	d.tel.inc(d.tel.safeModeEntries)
	d.tel.gauge(d.tel.safeModeG, 1)
	d.safeModeSpan = d.tel.spanStart(telemetry.Span{
		Kind: telemetry.SpanSafeMode, StartNs: nowNs, CPU: -1,
		Name: "static-partition", Value: frac})
	for _, lc := range d.reserved.CPUs() {
		d.siblingAllowed[lc] = false
		d.quietSince[lc] = -1
		if id, ok := d.borrowSpan[lc]; ok {
			d.tel.spanFinish(id, nowNs)
			delete(d.borrowSpan, lc)
		}
	}
	d.emit(telemetry.Event{Type: telemetry.SafeModeEntered, CPU: -1,
		Threshold: d.suspectFraction(),
		Detail:    fmt.Sprintf("suspect fraction %.2f", frac)})
	d.applyBatchMask()
	d.updatePoolGauges()
}

// exitSafeMode resumes normal scheduling once the stream has stayed
// plausible for the quiet period. Siblings stay withheld; the regular
// SNs quiet-period machinery re-grants them one by one, so recovery is
// as conservative as a post-interference re-offer.
func (d *Daemon) exitSafeMode(nowNs int64) {
	d.safeMode = false
	d.safeModeExits++
	d.tel.inc(d.tel.safeModeExits)
	d.tel.gauge(d.tel.safeModeG, 0)
	d.tel.spanFinish(d.safeModeSpan, nowNs)
	for _, lc := range d.reserved.CPUs() {
		d.quietSince[lc] = nowNs
	}
	d.emit(telemetry.Event{Type: telemetry.SafeModeExited, CPU: -1})
}

// SafeMode reports whether the daemon is currently in the conservative
// static-partition fallback.
func (d *Daemon) SafeMode() bool { return d.safeMode }

// SafeModeTransitions returns how many times safe mode was entered and
// exited.
func (d *Daemon) SafeModeTransitions() (entries, exits int64) {
	return d.safeModeEntries, d.safeModeExits
}

// rescanCgroups reconciles the container table against the cgroup tree,
// repairing both directions of event loss: groups that appeared without
// a delivered creation event are adopted, and tracked paths whose groups
// vanished without a removal event are dropped.
func (d *Daemon) rescanCgroups() {
	d.rescans++
	d.tel.inc(d.tel.rescans)
	seen := map[string]bool{}
	if root := d.fs.Lookup(d.cfg.YarnRoot); root != nil {
		root.Walk(func(g *cgroupfs.Group) {
			path := g.Path()
			seen[path] = true
			if _, known := d.containers[path]; known {
				return
			}
			for _, pid := range g.Pids() {
				proc := d.k.Process(pid)
				if proc == nil || proc.Exited() {
					continue
				}
				d.containers[path] = proc
				d.rescanRepairs++
				d.tel.inc(d.tel.batchFound)
				d.tel.inc(d.tel.rescanRepairsC)
				d.emit(telemetry.Event{Type: telemetry.RescanRepaired, CPU: -1, PID: pid, Detail: path})
				_ = proc.SetAffinity(d.BatchMask())
				break
			}
		})
	}
	for _, path := range d.sortedContainerPaths() {
		if seen[path] {
			continue
		}
		delete(d.containers, path)
		d.rescanRepairs++
		d.tel.inc(d.tel.rescanRepairsC)
		d.emit(telemetry.Event{Type: telemetry.RescanRepaired, CPU: -1, Detail: path})
	}
	d.tel.gauge(d.tel.containers, float64(len(d.containers)))
}

// RescanStats returns how many reconciliation scans ran and how many
// discrepancies (missed creations or removals) they repaired.
func (d *Daemon) RescanStats() (rescans, repairs int64) {
	return d.rescans, d.rescanRepairs
}

// Containers returns the number of batch containers the daemon currently
// tracks.
func (d *Daemon) Containers() int { return len(d.containers) }

// sortedLCPids returns the registered LC pids in ascending order, for
// deterministic iteration.
func (d *Daemon) sortedLCPids() []int {
	pids := make([]int, 0, len(d.lcPids))
	for pid := range d.lcPids {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	return pids
}
