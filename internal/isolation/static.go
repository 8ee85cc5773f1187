package isolation

import (
	"fmt"
	"strings"

	"github.com/holmes-colocation/holmes/internal/cgroupfs"
	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/kernel"
)

// Static is the fixed-partition baseline of §2.2's motivation ("statically
// allocating fixed amount of resource usually results in either
// sub-optimal performance or resource wastage"): latency-critical services
// get the reserved CPUs, batch jobs get the non-reserved non-sibling CPUs,
// and nothing ever changes. Latency matches Alone (no SMT interference by
// construction) but the LC siblings sit permanently idle.
type Static struct {
	k  *kernel.Kernel
	fs *cgroupfs.FS

	reserved  cpuid.Mask
	batchMask cpuid.Mask
	lcPids    map[int]*kernel.Process
	stopped   bool
}

// StaticConfig parameterizes the baseline.
type StaticConfig struct {
	ReservedCPUs int
}

// DefaultStaticConfig mirrors the evaluation setup.
func DefaultStaticConfig() StaticConfig {
	return StaticConfig{ReservedCPUs: 4}
}

// StartStatic installs the static partition.
func StartStatic(k *kernel.Kernel, fs *cgroupfs.FS, cfg StaticConfig) (*Static, error) {
	if cfg.ReservedCPUs <= 0 {
		return nil, fmt.Errorf("isolation: ReservedCPUs must be positive")
	}
	topo := k.Machine().Topology()
	if cfg.ReservedCPUs > topo.PhysicalCores() {
		return nil, fmt.Errorf("isolation: %d reserved CPUs exceed %d cores",
			cfg.ReservedCPUs, topo.PhysicalCores())
	}
	s := &Static{k: k, fs: fs, lcPids: map[int]*kernel.Process{}}
	for i := 0; i < cfg.ReservedCPUs; i++ {
		s.reserved.Set(i)
	}
	// Batch: everything except the reserved CPUs and their siblings.
	s.batchMask = cpuid.FullMask(topo.LogicalCPUs()).Subtract(s.reserved)
	for _, lc := range s.reserved.CPUs() {
		s.batchMask.Clear(topo.SiblingOf(lc))
	}
	fs.Watch(s.onCgroupEvent)
	return s, nil
}

// Stop halts container tracking.
func (s *Static) Stop() { s.stopped = true }

// ReservedCPUs returns the service partition.
func (s *Static) ReservedCPUs() cpuid.Mask { return s.reserved }

// BatchMask returns the fixed batch partition.
func (s *Static) BatchMask() cpuid.Mask { return s.batchMask }

// RegisterLC pins a service onto the reserved partition.
func (s *Static) RegisterLC(pid int) error {
	p := s.k.Process(pid)
	if p == nil {
		return fmt.Errorf("isolation: no such process %d", pid)
	}
	s.lcPids[pid] = p
	return p.SetAffinity(s.reserved)
}

func (s *Static) onCgroupEvent(ev cgroupfs.Event) {
	if s.stopped || ev.Type != cgroupfs.PidsChanged ||
		!strings.HasPrefix(ev.Path, yarnRoot+"/") {
		return
	}
	g := s.fs.Lookup(ev.Path)
	if g == nil {
		return
	}
	for _, pid := range g.Pids() {
		if proc := s.k.Process(pid); proc != nil {
			_ = proc.SetAffinity(s.batchMask)
		}
	}
}
