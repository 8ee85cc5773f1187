package isolation

import (
	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/machine"
)

// Caladan is the kernel-space comparator of Table 4: a dedicated
// scheduler core polls fine-grained congestion signals every ~10 µs and
// pauses batch hyperthreads the moment the latency-critical service shows
// activity on a core, resuming them when it goes quiet. Its reaction is
// ~20 µs — faster than Holmes — but the original requires Linux kernel
// modifications, whereas Holmes is pure user space (§6.5).
//
// The reproduction polls LC CPU activity (the paper's "timeout from
// latency-critical services" signal reduces to run-queue/occupancy
// observation at this fidelity) and toggles batch access to LC siblings.
type Caladan struct {
	m *machine.Machine
	k *kernel.Kernel

	lcCPUs   cpuid.Mask
	baseMask cpuid.Mask
	procs    []*kernel.Process
	prevBusy map[int]float64
	lastNs   int64
	paused   bool

	stimulusNs  int64
	convergedAt int64
	stop        func()
	stopped     bool
}

// Caladan's tuning, as in the cited deployment.
const (
	// caladanPollNs is the dedicated-core polling interval (~10 µs).
	caladanPollNs = 10_000
	// caladanActiveThreshold is the LC busy fraction that counts as
	// activity.
	caladanActiveThreshold = 0.1
)

// StartCaladan launches the scheduler watching lcCPUs and managing the
// batch processes.
func StartCaladan(k *kernel.Kernel, lcCPUs cpuid.Mask, batch []*kernel.Process) *Caladan {
	m := k.Machine()
	c := &Caladan{
		m:           m,
		k:           k,
		lcCPUs:      lcCPUs,
		procs:       batch,
		prevBusy:    map[int]float64{},
		lastNs:      m.Now(),
		stimulusNs:  -1,
		convergedAt: -1,
	}
	c.baseMask = cpuid.FullMask(m.Topology().LogicalCPUs()).Subtract(lcCPUs)
	for _, lc := range lcCPUs.CPUs() {
		c.prevBusy[lc] = m.BusyCycles(lc)
	}
	c.stop = m.SchedulePeriodic(caladanPollNs, c.poll)
	return c
}

// Stop halts the scheduler.
func (c *Caladan) Stop() {
	if !c.stopped {
		c.stopped = true
		c.stop()
	}
}

// MarkStimulus records the disturbance onset for convergence measurement.
func (c *Caladan) MarkStimulus(nowNs int64) {
	c.stimulusNs = nowNs
	c.convergedAt = -1
}

// ConvergenceNs returns the stimulus-to-pause delay, or -1.
func (c *Caladan) ConvergenceNs() int64 {
	if c.convergedAt < 0 || c.stimulusNs < 0 {
		return -1
	}
	return c.convergedAt - c.stimulusNs
}

// Paused reports whether batch is currently off the LC siblings.
func (c *Caladan) Paused() bool { return c.paused }

func (c *Caladan) poll(nowNs int64) {
	if c.stopped {
		return
	}
	window := nowNs - c.lastNs
	c.lastNs = nowNs
	if window <= 0 {
		return
	}
	freq := c.m.Config().FreqGHz
	active := false
	for _, lc := range c.lcCPUs.CPUs() {
		busy := c.m.BusyCycles(lc)
		usage := (busy - c.prevBusy[lc]) / (freq * float64(window))
		c.prevBusy[lc] = busy
		if usage > caladanActiveThreshold {
			active = true
		}
	}
	if active == c.paused {
		return // already in the right state
	}
	c.paused = active
	mask := c.baseMask
	if c.paused {
		topo := c.m.Topology()
		for _, lc := range c.lcCPUs.CPUs() {
			mask.Clear(topo.SiblingOf(lc))
		}
	}
	for _, p := range c.procs {
		if !p.Exited() {
			_ = p.SetAffinity(mask)
		}
	}
	if c.paused && c.convergedAt < 0 && c.stimulusNs >= 0 {
		c.convergedAt = nowNs
	}
}
