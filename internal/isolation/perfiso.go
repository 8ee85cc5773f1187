// Package isolation implements the comparison systems of the paper's
// evaluation: PerfIso (the representative CPU-isolation baseline of
// Figs. 7-12 and Table 3) and the three SMT-aware systems of the Table 4
// convergence study (Heracles-like and Parties-like feedback controllers,
// and a Caladan-like microsecond-scale pauser).
//
// PerfIso follows Iorgulescu et al. (USENIX ATC'18): keep a buffer of
// idle logical CPUs ahead of the latency-critical service's demand and
// give batch jobs the rest. Crucially — and this is the paper's point —
// PerfIso counts *logical* CPUs and is oblivious to hyperthread
// siblinghood, so batch jobs routinely land on the siblings of the
// service's CPUs and inflate its memory access latency.
package isolation

import (
	"fmt"
	"sort"
	"strings"

	"github.com/holmes-colocation/holmes/internal/cgroupfs"
	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/machine"
)

// PerfIso's fixed tuning, as in the evaluation setup.
const (
	// perfIsoBufferCPUs is the number of idle logical CPUs PerfIso keeps
	// free for load bursts.
	perfIsoBufferCPUs = 2
	// perfIsoIntervalNs is the adjustment interval (PerfIso reacts at
	// millisecond timescales).
	perfIsoIntervalNs = 1_000_000 // 1 ms
	// perfIsoBusyThreshold is the usage fraction above which a CPU counts
	// busy.
	perfIsoBusyThreshold = 0.5
)

// yarnRoot is the cgroup directory the baselines watch for batch
// containers.
const yarnRoot = "/yarn"

// PerfIsoConfig parameterizes the PerfIso reproduction.
type PerfIsoConfig struct {
	// ReservedCPUs are dedicated to the latency-critical service, as in
	// the paper's co-location setup (batch jobs get everything else).
	ReservedCPUs int
}

// DefaultPerfIsoConfig mirrors the evaluation setup.
func DefaultPerfIsoConfig() PerfIsoConfig {
	return PerfIsoConfig{ReservedCPUs: 4}
}

// PerfIso is the running baseline daemon.
type PerfIso struct {
	cfg PerfIsoConfig
	m   *machine.Machine
	k   *kernel.Kernel
	fs  *cgroupfs.FS

	reserved   cpuid.Mask
	containers map[string]*kernel.Process
	lcPids     map[int]*kernel.Process
	prevBusy   []float64
	lastNs     int64
	// buffered is the current set of CPUs withheld from batch as the
	// idle buffer.
	buffered cpuid.Mask
	stopped  bool
	stop     func()
	adjusts  int64
}

// StartPerfIso launches the baseline.
func StartPerfIso(k *kernel.Kernel, fs *cgroupfs.FS, cfg PerfIsoConfig) (*PerfIso, error) {
	if cfg.ReservedCPUs <= 0 {
		return nil, fmt.Errorf("isolation: invalid PerfIso config %+v", cfg)
	}
	m := k.Machine()
	p := &PerfIso{
		cfg:        cfg,
		m:          m,
		k:          k,
		fs:         fs,
		containers: map[string]*kernel.Process{},
		lcPids:     map[int]*kernel.Process{},
		prevBusy:   make([]float64, m.Topology().LogicalCPUs()),
		lastNs:     m.Now(),
	}
	// PerfIso reserves logical CPUs without regard to core topology: the
	// first N logical CPUs. (With the Linux enumeration these happen to
	// be on distinct cores, but their siblings remain open to batch —
	// the HT-obliviousness under study.)
	for i := 0; i < cfg.ReservedCPUs; i++ {
		p.reserved.Set(i)
	}
	for i := range p.prevBusy {
		p.prevBusy[i] = m.BusyCycles(i)
	}
	fs.Watch(p.onCgroupEvent)
	p.stop = m.SchedulePeriodic(perfIsoIntervalNs, p.tick)
	return p, nil
}

// Stop halts the daemon.
func (p *PerfIso) Stop() {
	if !p.stopped {
		p.stopped = true
		p.stop()
	}
}

// ReservedCPUs returns the service's dedicated logical CPUs.
func (p *PerfIso) ReservedCPUs() cpuid.Mask { return p.reserved }

// Adjustments returns the number of batch-mask adjustments made.
func (p *PerfIso) Adjustments() int64 { return p.adjusts }

// RegisterLC pins a latency-critical service onto the reserved CPUs.
func (p *PerfIso) RegisterLC(pid int) error {
	proc := p.k.Process(pid)
	if proc == nil {
		return fmt.Errorf("isolation: no such process %d", pid)
	}
	p.lcPids[pid] = proc
	return proc.SetAffinity(p.reserved)
}

// BatchMask returns the CPUs batch jobs may use now: all logical CPUs
// except the reserved ones and the current idle buffer. Siblings of
// reserved CPUs are *not* excluded.
func (p *PerfIso) BatchMask() cpuid.Mask {
	all := cpuid.FullMask(p.m.Topology().LogicalCPUs())
	return all.Subtract(p.reserved).Subtract(p.buffered)
}

func (p *PerfIso) onCgroupEvent(ev cgroupfs.Event) {
	if p.stopped || !strings.HasPrefix(ev.Path, yarnRoot+"/") {
		return
	}
	switch ev.Type {
	case cgroupfs.PidsChanged:
		g := p.fs.Lookup(ev.Path)
		if g == nil {
			return
		}
		for _, pid := range g.Pids() {
			if _, known := p.containers[ev.Path]; known {
				continue
			}
			if proc := p.k.Process(pid); proc != nil {
				p.containers[ev.Path] = proc
				_ = proc.SetAffinity(p.BatchMask())
			}
		}
	case cgroupfs.GroupRemoved:
		delete(p.containers, ev.Path)
	}
}

// tick maintains the idle-CPU buffer: if fewer than perfIsoBufferCPUs
// non-batch CPUs are idle, it withdraws CPUs from batch; if more, it
// returns them.
func (p *PerfIso) tick(nowNs int64) {
	if p.stopped {
		return
	}
	window := nowNs - p.lastNs
	p.lastNs = nowNs
	if window <= 0 {
		return
	}
	n := p.m.Topology().LogicalCPUs()
	freq := p.m.Config().FreqGHz
	idleBuffered := 0
	var busiestBatchCPU, idlestBufferedCPU int = -1, -1
	var busiestUsage float64 = -1
	for c := 0; c < n; c++ {
		busy := p.m.BusyCycles(c)
		usage := (busy - p.prevBusy[c]) / (freq * float64(window))
		p.prevBusy[c] = busy
		if p.reserved.Has(c) {
			continue
		}
		if p.buffered.Has(c) {
			if usage < perfIsoBusyThreshold {
				idleBuffered++
				idlestBufferedCPU = c
			}
			continue
		}
		if usage > busiestUsage {
			busiestUsage, busiestBatchCPU = usage, c
		}
	}
	changed := false
	if idleBuffered < perfIsoBufferCPUs && busiestBatchCPU >= 0 {
		// Grow the buffer: withdraw one CPU from batch.
		p.buffered.Set(busiestBatchCPU)
		changed = true
	} else if idleBuffered > perfIsoBufferCPUs && idlestBufferedCPU >= 0 {
		// Shrink the buffer: return one CPU to batch.
		p.buffered.Clear(idlestBufferedCPU)
		changed = true
	}
	if changed {
		p.adjusts++
		mask := p.BatchMask()
		// Re-pin in sorted path order: affinity changes migrate threads
		// one container at a time, and where each lands depends on the
		// occupancy left by the previous one — map order would make the
		// whole simulation's placement (and its latency distribution)
		// vary run to run.
		paths := make([]string, 0, len(p.containers))
		for path := range p.containers {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			proc := p.containers[path]
			if proc.Exited() {
				delete(p.containers, path)
				continue
			}
			_ = proc.SetAffinity(mask)
		}
	}
}
