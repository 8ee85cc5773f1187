package scenario

import (
	"fmt"
	"slices"

	"github.com/holmes-colocation/holmes/internal/batch"
	"github.com/holmes-colocation/holmes/internal/cgroupfs"
	"github.com/holmes-colocation/holmes/internal/core"
	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/isolation"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/lcservice"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/telemetry"
	"github.com/holmes-colocation/holmes/internal/yarn"
	"github.com/holmes-colocation/holmes/internal/ycsb"
)

// Node is one booted co-location node: a machine with its kernel and
// cgroup filesystem, the latency-critical services with their clients
// running, the CPU scheduler, and the batch stream.
type Node struct {
	Machine *machine.Machine
	// Reserved is the initial reserved pool the services share.
	Reserved cpuid.Mask
	Services []*NodeService
	// Holmes is the daemon under the "holmes" scheduler, else nil.
	Holmes *core.Daemon
	// Batch runs the batch stream; nil without one.
	Batch *yarn.NodeManager

	stopScheduler func()
	// Counters at the end of the last warm-up; Measure reports deltas.
	busyBase, daemonBase, telBase float64
	jobsBase                      int
}

// NodeService is one running latency-critical service.
type NodeService struct {
	Spec    ServiceSpec
	Service *lcservice.Service

	client      *lcservice.Client
	queriesBase int64
}

// Boot builds a node from spec and starts its clients. Spec.Seed seeds
// the machine as given, 0 included. tel, when non-nil, receives metrics
// from the kernel, the cgroup filesystem and the Holmes daemon, plus the
// daemon's decision spans. Spec.Holmes is the one way to tune the daemon;
// it always runs on the machine's last logical CPU.
//
// The construction order is part of the contract, since every component
// shares the machine's event queue: per service store, launch,
// generator, preload, traffic and client; then the scheduler with every
// service registered; then the batch stream; then client start.
func Boot(spec Spec, tel *telemetry.Set) (*Node, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	mcfg := machine.DefaultConfig()
	if spec.Machine.Cores > 0 {
		mcfg.Topology = cpuid.Topology{Sockets: 1, Cores: spec.Machine.Cores}
	}
	if spec.Machine.FreqGHz > 0 {
		mcfg.FreqGHz = spec.Machine.FreqGHz
	}
	if spec.Machine.TickUs > 0 {
		mcfg.TickNs = spec.Machine.TickUs * 1000
	}
	mcfg.Seed = spec.Seed
	m := machine.New(mcfg)
	k := kernel.New(m)
	fs := cgroupfs.NewFS()
	if tel != nil {
		k.SetTelemetry(tel)
		fs.SetTelemetry(tel)
	}

	nLCPU := mcfg.Topology.LogicalCPUs()
	reservedN := 4
	if spec.Holmes != nil && spec.Holmes.ReservedCPUs > 0 {
		reservedN = spec.Holmes.ReservedCPUs
	}
	if reservedN > mcfg.Topology.PhysicalCores() {
		return nil, fmt.Errorf("scenario: %d reserved CPUs exceed %d cores",
			reservedN, mcfg.Topology.PhysicalCores())
	}
	n := &Node{Machine: m}
	for i := 0; i < reservedN; i++ {
		n.Reserved.Set(i)
	}

	for i, ss := range spec.Services {
		wl, _ := ycsb.ByName(defaultStr(ss.Workload, "a"))
		records := ss.RecordCount
		if records == 0 {
			records = 50_000
		}
		store, gen, err := lcservice.Preload{
			Store:     ss.Store,
			StoreSeed: mcfg.Seed + uint64(i),
			Workload:  wl,
			Records:   records,
			GenSeed:   mcfg.Seed + 17 + uint64(i)*101,
		}.Load()
		if err != nil {
			return nil, err
		}
		svc := lcservice.Launch(k, store, lcservice.DefaultConfigFor(ss.Store))

		var tr *ycsb.Traffic
		if ss.BurstSeconds[0] > 0 {
			tr = ycsb.NewTraffic(
				int64(ss.BurstSeconds[0]*1e9), int64(ss.BurstSeconds[1]*1e9),
				int64(ss.GapSeconds[0]*1e9), int64(ss.GapSeconds[1]*1e9),
				ss.RPS, mcfg.Seed+29+uint64(i)*7)
		} else {
			tr = ycsb.NewTraffic(1e9, 2e9, 1, 2, ss.RPS, mcfg.Seed+29+uint64(i)*7)
		}
		n.Services = append(n.Services, &NodeService{Spec: ss, Service: svc,
			client: lcservice.NewClient(svc, gen, tr)})
	}

	if err := n.startScheduler(k, fs, spec, reservedN, tel); err != nil {
		return nil, err
	}
	if spec.Batch != nil {
		var err error
		if n.Batch, err = startBatch(k, fs, cpuid.FullMask(nLCPU).Subtract(n.Reserved), spec.Batch); err != nil {
			return nil, err
		}
	}
	for _, s := range n.Services {
		s.client.Start()
	}
	return n, nil
}

// startScheduler starts the spec's CPU scheduler and registers every
// service with it; "none" pins the services to the reserved pool.
func (n *Node) startScheduler(k *kernel.Kernel, fs *cgroupfs.FS, spec Spec, reservedN int, tel *telemetry.Set) error {
	var register func(pid int) error
	switch spec.Scheduler {
	case "holmes":
		hc := core.DefaultConfig()
		hc.ReservedCPUs = reservedN
		hc.SNs = 500_000_000
		if h := spec.Holmes; h != nil {
			if h.E > 0 {
				hc.E = h.E
			}
			if h.IntervalUs > 0 {
				hc.IntervalNs = h.IntervalUs * 1000
			}
			if h.QuietSeconds > 0 {
				hc.SNs = int64(h.QuietSeconds * 1e9)
			}
			if h.TriggerMetric != "" {
				hc.TriggerMetric = core.Metric(h.TriggerMetric)
			}
		}
		hc.DaemonCPU = n.Machine.Topology().LogicalCPUs() - 1
		hc.Telemetry = tel
		d, err := core.Start(k, fs, hc)
		if err != nil {
			return err
		}
		n.Holmes, register, n.stopScheduler = d, d.RegisterLC, d.Stop
	case "perfiso":
		pc := isolation.DefaultPerfIsoConfig()
		pc.ReservedCPUs = reservedN
		p, err := isolation.StartPerfIso(k, fs, pc)
		if err != nil {
			return err
		}
		register, n.stopScheduler = p.RegisterLC, p.Stop
	case "static":
		sc := isolation.DefaultStaticConfig()
		sc.ReservedCPUs = reservedN
		st, err := isolation.StartStatic(k, fs, sc)
		if err != nil {
			return err
		}
		register, n.stopScheduler = st.RegisterLC, st.Stop
	default: // none: pin services to the reserved pool statically
		register = func(pid int) error { return k.Process(pid).SetAffinity(n.Reserved) }
		n.stopScheduler = func() {}
	}
	for _, s := range n.Services {
		if err := register(s.Service.PID()); err != nil {
			return err
		}
	}
	return nil
}

// startBatch starts a YARN node manager on cpus and submits the spec's
// initial jobs, two more than run concurrently.
func startBatch(k *kernel.Kernel, fs *cgroupfs.FS, cpus cpuid.Mask, b *BatchSpec) (*yarn.NodeManager, error) {
	kinds := batch.Kinds()
	if len(b.Kinds) > 0 {
		kinds = nil
		for _, name := range b.Kinds {
			i := slices.IndexFunc(batch.Kinds(), func(k batch.Kind) bool { return k.String() == name })
			if i < 0 {
				return nil, fmt.Errorf("scenario: unknown batch kind %q", name)
			}
			kinds = append(kinds, batch.Kinds()[i])
		}
	}
	nm := yarn.NewNodeManager(k, fs, cpus)
	mk := func(i int) batch.Spec {
		return batch.Spec{
			Kind:                kinds[i%len(kinds)],
			Containers:          defaultInt(b.Containers, 4),
			ThreadsPerContainer: defaultInt(b.ThreadsPerContainer, 2),
			WorkUnitsPerThread:  defaultInt(b.WorkUnitsPerThread, 1200),
			MemoryBytes:         4 << 30,
		}
	}
	idx := 0
	if b.Continuous {
		nm.Refill = func() *batch.Spec {
			s := mk(idx)
			idx++
			return &s
		}
	}
	nm.MaxConcurrentJobs = defaultInt(b.ConcurrentJobs, 4)
	for i := 0; i < nm.MaxConcurrentJobs+2; i++ {
		if err := nm.Submit(mk(idx)); err != nil {
			return nil, err
		}
		idx++
	}
	return nm, nil
}

// BusyCycles sums the busy cycles of the CPUs in mask, in CPU order.
func (n *Node) BusyCycles(mask cpuid.Mask) float64 {
	var sum float64
	for p := mask.Next(0); p >= 0; p = mask.Next(p + 1) {
		sum += n.Machine.BusyCycles(p)
	}
	return sum
}

// WarmUp runs the node for ns of simulated time, then resets every
// service's latency histogram and snapshots the counters Measure
// reports as deltas.
func (n *Node) WarmUp(ns int64) {
	n.Machine.RunFor(ns)
	for _, s := range n.Services {
		s.Service.ResetLatencies()
		s.queriesBase = s.Service.Completed()
	}
	n.busyBase = n.BusyCycles(cpuid.FullMask(n.Machine.Topology().LogicalCPUs()))
	if n.Batch != nil {
		n.jobsBase = n.Batch.CompletedCount()
	}
	if n.Holmes != nil {
		n.daemonBase = n.Holmes.CPUTimeNs()
		n.telBase = n.Holmes.TelemetryCPUTimeNs()
	}
}

// Window is what a node measured between the end of its warm-up and the
// end of Measure. Each service's latency histogram covers the same span.
type Window struct {
	// AvgCPUUtil is the machine-wide busy fraction.
	AvgCPUUtil    float64
	CompletedJobs int
	// Queries counts completions per service, in Spec order.
	Queries []int64
	// DaemonUtil is the Holmes daemon's CPU fraction and TelemetryUtil
	// its telemetry-recording share (zero under other schedulers).
	DaemonUtil, TelemetryUtil float64
}

// Measure runs the node for ns of simulated time and returns the window
// since the last WarmUp.
func (n *Node) Measure(ns int64) Window {
	n.Machine.RunFor(ns)
	var w Window
	for _, s := range n.Services {
		w.Queries = append(w.Queries, s.Service.Completed()-s.queriesBase)
	}
	cpus := cpuid.FullMask(n.Machine.Topology().LogicalCPUs())
	w.AvgCPUUtil = (n.BusyCycles(cpus) - n.busyBase) /
		(n.Machine.Config().FreqGHz * float64(ns) * float64(cpus.Count()))
	if n.Batch != nil {
		w.CompletedJobs = n.Batch.CompletedCount() - n.jobsBase
	}
	if n.Holmes != nil {
		w.DaemonUtil = (n.Holmes.CPUTimeNs() - n.daemonBase) / float64(ns)
		w.TelemetryUtil = (n.Holmes.TelemetryCPUTimeNs() - n.telBase) / float64(ns)
	}
	return w
}

// Stop ends client traffic and stops the scheduler.
func (n *Node) Stop() {
	for _, s := range n.Services {
		s.client.Stop()
	}
	n.stopScheduler()
}
