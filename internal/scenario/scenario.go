// Package scenario runs declarative co-location simulations described as
// JSON documents: a machine, one or more latency-critical services, a
// batch-job stream, and a CPU-scheduling policy (Holmes, PerfIso, or
// none). It is the configuration-driven face of the reproduction — what a
// downstream user points at their own workload mix — and it generalizes
// the paper's evaluation to multiple co-located services sharing one
// reserved pool.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/holmes-colocation/holmes/internal/batch"
	"github.com/holmes-colocation/holmes/internal/cgroupfs"
	"github.com/holmes-colocation/holmes/internal/core"
	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/isolation"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/kvstore"
	"github.com/holmes-colocation/holmes/internal/lcservice"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/stats"
	"github.com/holmes-colocation/holmes/internal/trace"
	"github.com/holmes-colocation/holmes/internal/yarn"
	"github.com/holmes-colocation/holmes/internal/ycsb"
)

// Spec is a complete scenario description.
type Spec struct {
	Name    string      `json:"name"`
	Machine MachineSpec `json:"machine"`
	// Scheduler is "holmes", "perfiso" or "none".
	Scheduler string      `json:"scheduler"`
	Holmes    *HolmesSpec `json:"holmes,omitempty"`
	// Services are the latency-critical services; all share the
	// reserved CPU pool.
	Services []ServiceSpec `json:"services"`
	Batch    *BatchSpec    `json:"batch,omitempty"`
	// WarmupSeconds and DurationSeconds are simulated time.
	WarmupSeconds   float64 `json:"warmup_seconds"`
	DurationSeconds float64 `json:"duration_seconds"`
	Seed            uint64  `json:"seed"`
}

// MachineSpec describes the simulated server.
type MachineSpec struct {
	Cores   int     `json:"cores"`    // physical cores (x2 hardware threads)
	FreqGHz float64 `json:"freq_ghz"` // 0 = default 2.0
	TickUs  int64   `json:"tick_us"`  // 0 = default 10
}

// HolmesSpec overrides daemon parameters.
type HolmesSpec struct {
	E             float64 `json:"e"`              // 0 = default 40
	IntervalUs    int64   `json:"interval_us"`    // 0 = default 100
	QuietSeconds  float64 `json:"quiet_seconds"`  // S; 0 = default 0.5
	ReservedCPUs  int     `json:"reserved_cpus"`  // 0 = default 4
	TriggerMetric string  `json:"trigger_metric"` // "" = vpi
}

// ServiceSpec describes one latency-critical service.
type ServiceSpec struct {
	Name        string  `json:"name"` // display name; defaults to store
	Store       string  `json:"store"`
	Workload    string  `json:"workload"`     // YCSB a..f
	RecordCount int64   `json:"record_count"` // 0 = 50,000
	RPS         float64 `json:"rps"`
	// Bursty traffic: 0 burst seconds means constant traffic.
	BurstSeconds [2]float64 `json:"burst_seconds"`
	GapSeconds   [2]float64 `json:"gap_seconds"`
}

// BatchSpec describes the best-effort job stream.
type BatchSpec struct {
	Kinds               []string `json:"kinds"` // default: all
	ConcurrentJobs      int      `json:"concurrent_jobs"`
	Containers          int      `json:"containers"`
	ThreadsPerContainer int      `json:"threads_per_container"`
	WorkUnitsPerThread  int      `json:"work_units_per_thread"`
	Continuous          bool     `json:"continuous"` // refill when jobs finish
}

// Load parses a JSON scenario, rejecting unknown fields.
func Load(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("scenario: %w", err)
	}
	return s, s.Validate()
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Machine.Cores < 0 || s.Machine.Cores > 128 {
		return fmt.Errorf("scenario: cores %d out of range", s.Machine.Cores)
	}
	switch s.Scheduler {
	case "", "none", "holmes", "perfiso", "static":
	default:
		return fmt.Errorf("scenario: unknown scheduler %q", s.Scheduler)
	}
	if len(s.Services) == 0 {
		return fmt.Errorf("scenario: at least one service required")
	}
	for _, svc := range s.Services {
		switch svc.Store {
		case "redis", "memcached", "rocksdb", "wiredtiger":
		default:
			return fmt.Errorf("scenario: unknown store %q", svc.Store)
		}
		if _, err := ycsb.ByName(defaultStr(svc.Workload, "a")); err != nil {
			return err
		}
		if svc.RPS <= 0 {
			return fmt.Errorf("scenario: service %s needs a positive rps", svc.Store)
		}
	}
	if s.DurationSeconds <= 0 {
		return fmt.Errorf("scenario: duration_seconds must be positive")
	}
	return nil
}

func defaultStr(v, d string) string {
	if v == "" {
		return d
	}
	return v
}

// ServiceReport is one service's outcome.
type ServiceReport struct {
	Name     string
	Workload string
	Queries  int64
	Summary  stats.Summary
	MemBytes int64
}

// Report is the scenario outcome.
type Report struct {
	Spec          Spec
	Services      []ServiceReport
	AvgCPUUtil    float64
	CompletedJobs int
	// Holmes statistics (zero under other schedulers).
	Deallocations, Reallocations, Expansions int64
	DaemonUtil                               float64
}

// Run executes the scenario.
func Run(spec Spec) (*Report, error) {
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
	if spec.Seed != 0 {
		mcfg.Seed = spec.Seed
	}
	m := machine.New(mcfg)
	k := kernel.New(m)
	fs := cgroupfs.NewFS()

	nLCPU := mcfg.Topology.LogicalCPUs()
	reservedN := 4
	if spec.Holmes != nil && spec.Holmes.ReservedCPUs > 0 {
		reservedN = spec.Holmes.ReservedCPUs
	}
	if reservedN > mcfg.Topology.PhysicalCores() {
		return nil, fmt.Errorf("scenario: %d reserved CPUs exceed %d cores",
			reservedN, mcfg.Topology.PhysicalCores())
	}
	reserved := cpuid.Mask{}
	for i := 0; i < reservedN; i++ {
		reserved.Set(i)
	}

	// Services.
	type running struct {
		spec   ServiceSpec
		svc    *lcservice.Service
		client *lcservice.Client
		store  kvstore.Store
	}
	var services []running
	for i, ss := range spec.Services {
		store, err := lcservice.NewStore(ss.Store, mcfg.Seed+uint64(i))
		if err != nil {
			return nil, err
		}
		svc := lcservice.Launch(k, store, lcservice.DefaultConfigFor(ss.Store))
		wl, _ := ycsb.ByName(defaultStr(ss.Workload, "a"))
		gcfg := ycsb.DefaultConfig(wl)
		gcfg.RecordCount = ss.RecordCount
		if gcfg.RecordCount == 0 {
			gcfg.RecordCount = 50_000
		}
		gcfg.Seed = mcfg.Seed + 17 + uint64(i)*101
		gen := ycsb.NewGenerator(gcfg)
		svc.Load(gen)

		var tr *ycsb.Traffic
		if ss.BurstSeconds[0] > 0 {
			tr = ycsb.NewTraffic(
				int64(ss.BurstSeconds[0]*1e9), int64(ss.BurstSeconds[1]*1e9),
				int64(ss.GapSeconds[0]*1e9), int64(ss.GapSeconds[1]*1e9),
				ss.RPS, mcfg.Seed+29+uint64(i)*7)
		} else {
			tr = ycsb.NewTraffic(1e9, 2e9, 1, 2, ss.RPS, mcfg.Seed+29+uint64(i)*7)
		}
		services = append(services, running{spec: ss, svc: svc, store: store,
			client: lcservice.NewClient(svc, gen, tr)})
	}

	// Control plane.
	var holmesd *core.Daemon
	var perfiso *isolation.PerfIso
	switch spec.Scheduler {
	case "holmes":
		hc := core.DefaultConfig()
		hc.ReservedCPUs = reservedN
		hc.SNs = 500_000_000
		hc.DaemonCPU = nLCPU - 1
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
		var err error
		holmesd, err = core.Start(k, fs, hc)
		if err != nil {
			return nil, err
		}
		for _, r := range services {
			if err := holmesd.RegisterLC(r.svc.PID()); err != nil {
				return nil, err
			}
		}
	case "perfiso":
		pc := isolation.DefaultPerfIsoConfig()
		pc.ReservedCPUs = reservedN
		var err error
		perfiso, err = isolation.StartPerfIso(k, fs, pc)
		if err != nil {
			return nil, err
		}
		for _, r := range services {
			if err := perfiso.RegisterLC(r.svc.PID()); err != nil {
				return nil, err
			}
		}
	case "static":
		sc := isolation.DefaultStaticConfig()
		sc.ReservedCPUs = reservedN
		st, err := isolation.StartStatic(k, fs, sc)
		if err != nil {
			return nil, err
		}
		for _, r := range services {
			if err := st.RegisterLC(r.svc.PID()); err != nil {
				return nil, err
			}
		}
		defer st.Stop()
	default: // none: pin services to the reserved pool statically
		for _, r := range services {
			if err := r.svc.Process().SetAffinity(reserved); err != nil {
				return nil, err
			}
		}
	}

	// Batch stream.
	var nm *yarn.NodeManager
	if spec.Batch != nil {
		nm = yarn.NewNodeManager(k, fs, cpuid.FullMask(nLCPU).Subtract(reserved))
		b := spec.Batch
		kinds := batch.Kinds()
		if len(b.Kinds) > 0 {
			kinds = nil
			for _, name := range b.Kinds {
				found := false
				for _, kd := range batch.Kinds() {
					if kd.String() == name {
						kinds = append(kinds, kd)
						found = true
					}
				}
				if !found {
					return nil, fmt.Errorf("scenario: unknown batch kind %q", name)
				}
			}
		}
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
	}

	for _, r := range services {
		r.client.Start()
	}

	// Warmup, measure.
	m.RunFor(int64(spec.WarmupSeconds * 1e9))
	for _, r := range services {
		r.svc.ResetLatencies()
	}
	var busyBase float64
	for p := 0; p < nLCPU; p++ {
		busyBase += m.BusyCycles(p)
	}
	jobsBase := 0
	if nm != nil {
		jobsBase = nm.CompletedCount()
	}
	var daemonBase float64
	if holmesd != nil {
		daemonBase = holmesd.CPUTimeNs()
	}
	durNs := int64(spec.DurationSeconds * 1e9)
	m.RunFor(durNs)

	// Collect.
	rep := &Report{Spec: spec}
	for _, r := range services {
		name := defaultStr(r.spec.Name, r.spec.Store)
		sr := ServiceReport{
			Name:     name,
			Workload: defaultStr(r.spec.Workload, "a"),
			Queries:  r.svc.Completed(),
			Summary:  r.svc.Latencies().Summarize(),
		}
		if mr, ok := r.store.(kvstore.MemoryReporter); ok {
			sr.MemBytes = mr.ApproxMemory()
		}
		rep.Services = append(rep.Services, sr)
		r.client.Stop()
	}
	var busyNow float64
	for p := 0; p < nLCPU; p++ {
		busyNow += m.BusyCycles(p)
	}
	rep.AvgCPUUtil = (busyNow - busyBase) / (mcfg.FreqGHz * float64(durNs) * float64(nLCPU))
	if nm != nil {
		rep.CompletedJobs = nm.CompletedCount() - jobsBase
	}
	if holmesd != nil {
		_, rep.Deallocations, rep.Reallocations, rep.Expansions = holmesd.Stats()
		rep.DaemonUtil = (holmesd.CPUTimeNs() - daemonBase) / float64(durNs)
		holmesd.Stop()
	}
	if perfiso != nil {
		perfiso.Stop()
	}
	return rep, nil
}

func defaultInt(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

// Render prints the report.
func (r *Report) Render() string {
	var b strings.Builder
	title := r.Spec.Name
	if title == "" {
		title = "scenario"
	}
	tb := trace.NewTable(fmt.Sprintf("%s (%s scheduler, %.0fs simulated)",
		title, defaultStr(r.Spec.Scheduler, "none"), r.Spec.DurationSeconds),
		"service", "workload", "queries", "mean us", "p90 us", "p99 us", "mem MB")
	for _, s := range r.Services {
		tb.AddRow(s.Name, "workload-"+s.Workload, s.Queries,
			fmt.Sprintf("%.1f", s.Summary.Mean/1e3),
			fmt.Sprintf("%.1f", s.Summary.P90/1e3),
			fmt.Sprintf("%.1f", s.Summary.P99/1e3),
			fmt.Sprintf("%.1f", float64(s.MemBytes)/(1<<20)))
	}
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\nmachine utilization: %.1f%%   batch jobs completed: %d\n",
		100*r.AvgCPUUtil, r.CompletedJobs)
	if r.Spec.Scheduler == "holmes" {
		fmt.Fprintf(&b, "holmes: %d evictions, %d restorations, %d expansions, %.2f%% daemon CPU\n",
			r.Deallocations, r.Reallocations, r.Expansions, 100*r.DaemonUtil)
	}
	return b.String()
}
