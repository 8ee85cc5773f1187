// Package experiments reproduces every table and figure of the paper's
// evaluation (§2, §3 and §6). Each experiment has a Run function that
// returns structured results and a renderer that prints the same rows or
// series the paper reports; cmd/holmes-bench exposes them by id and
// bench_test.go wraps them as testing.B benchmarks.
//
// Time compression: the paper's co-location runs last one hour with
// 60-90 s traffic bursts and ~3 minute batch jobs. The simulated runs
// compress time 10x by default (6-9 s bursts, 0.5-1 s gaps, ~20 s batch
// jobs, 20-60 s measured windows); utilization ratios, latency CDFs and
// job-throughput ratios are invariant under this scaling. EXPERIMENTS.md
// records the factor used for every experiment.
package experiments

import (
	"fmt"

	"github.com/holmes-colocation/holmes/internal/core"
	"github.com/holmes-colocation/holmes/internal/hpe"
	"github.com/holmes-colocation/holmes/internal/kvstore"
	"github.com/holmes-colocation/holmes/internal/perf"
	"github.com/holmes-colocation/holmes/internal/scenario"
	"github.com/holmes-colocation/holmes/internal/stats"
	"github.com/holmes-colocation/holmes/internal/telemetry"
	"github.com/holmes-colocation/holmes/internal/trace"
)

// Setting is one of the three evaluation configurations of §6.1.
type Setting string

// The three settings.
const (
	Alone   Setting = "alone"
	Holmes  Setting = "holmes"
	PerfIso Setting = "perfiso"
)

// Settings lists all three in paper order.
func Settings() []Setting { return []Setting{Alone, Holmes, PerfIso} }

// StoreNames lists the four latency-critical services in paper order.
func StoreNames() []string {
	return []string{"redis", "rocksdb", "wiredtiger", "memcached"}
}

// WorkloadsFor returns the YCSB workloads evaluated for a store
// (Memcached has no scans, hence no workload E — §6.2).
func WorkloadsFor(store string) []string {
	if store == "memcached" {
		return []string{"a", "b"}
	}
	return []string{"a", "b", "e"}
}

// ColocationConfig parameterizes one co-location run.
type ColocationConfig struct {
	Store    string
	Workload string
	Setting  Setting

	// WarmupNs runs before measurement starts (latencies and counters
	// reset afterwards).
	WarmupNs int64
	// DurationNs is the measured window.
	DurationNs int64
	// RecordCount is the store's preloaded size.
	RecordCount int64
	// RPS is the client's target rate during bursts; 0 picks the
	// per-store default calibrated to ~50% service utilization.
	RPS float64
	// Seed drives the whole run.
	Seed uint64
	// HolmesConfig overrides the daemon settings (Fig. 14's E sweep);
	// nil uses core.DefaultConfig with the compressed quiet period.
	HolmesConfig *core.Config
	// VPISampleNs > 0 records the average VPI across the LC CPUs into
	// VPISeries at this period (Fig. 13).
	VPISampleNs int64
	// Telemetry, when non-nil, receives metrics and decision events from
	// the daemon, the kernel and the cgroup filesystem for the whole run.
	Telemetry *telemetry.Set
}

// DefaultColocation returns the standard compressed-run configuration.
func DefaultColocation(store, workload string, setting Setting) ColocationConfig {
	return ColocationConfig{
		Store:       store,
		Workload:    workload,
		Setting:     setting,
		WarmupNs:    2_000_000_000,
		DurationNs:  20_000_000_000,
		RecordCount: 50_000,
		Seed:        1,
	}
}

// defaultRPS picks the burst rate for a (store, workload) pair,
// calibrated to roughly half the service's capacity when uncontended —
// the operating point where interference visibly amplifies queueing, as
// on the paper's testbed.
func defaultRPS(store, workload string) float64 {
	if workload == "e" {
		// Scans are 1-2 orders heavier than point queries.
		if store == "redis" {
			return 600
		}
		return 2_000
	}
	if store == "redis" {
		return 10_000 // single worker thread, ~45% utilization
	}
	return 40_000 // four worker threads, ~45% utilization
}

// ColocationResult is the outcome of one run.
type ColocationResult struct {
	Config ColocationConfig

	// Latency is the query latency histogram (ns) over the measured
	// window.
	Latency *stats.Histogram
	// AvgCPUUtil is the machine-wide busy fraction.
	AvgCPUUtil float64
	// LCUtil is the busy fraction of the four (initial) reserved CPUs.
	LCUtil float64
	// CompletedJobs counts batch jobs finished inside the window.
	CompletedJobs int
	// CompletedQueries counts queries finished inside the window.
	CompletedQueries int64
	// VPISeries is the Fig. 13 timeline (empty unless VPISampleNs > 0).
	VPISeries trace.Series
	// Invocations counts daemon ticks over the whole run; the action
	// counters below are Holmes's decisions (zero under other settings).
	Invocations                              int64
	Deallocations, Reallocations, Expansions int64
	// DaemonUtil is the Holmes daemon's own CPU usage fraction (§6.6).
	DaemonUtil float64
	// TelemetryUtil is the share of DaemonUtil modeled as telemetry
	// recording cost (zero when no Telemetry set is attached).
	TelemetryUtil float64
	// ServiceMemBytes is the store's resident memory at the end of the
	// run; BatchMemBytes sums the live batch containers' memory limits
	// (each container is configured with a fixed size, §6.3).
	ServiceMemBytes int64
	BatchMemBytes   int64
}

// colocationSpec translates a run into the one-service scenario that
// builds its node: bursts of 6-9 s separated by 0.5-1 s gaps, and, under
// co-location, a continuous HiBench stream of 4-container jobs.
func colocationSpec(cfg ColocationConfig) (scenario.Spec, error) {
	spec := scenario.Spec{
		Services: []scenario.ServiceSpec{{
			Store: cfg.Store, Workload: cfg.Workload, RecordCount: cfg.RecordCount, RPS: cfg.RPS,
			BurstSeconds: [2]float64{6, 9}, GapSeconds: [2]float64{0.5, 1},
		}},
		WarmupSeconds:   float64(cfg.WarmupNs) / 1e9,
		DurationSeconds: float64(cfg.DurationNs) / 1e9,
		Seed:            cfg.Seed,
	}
	switch cfg.Setting {
	case Alone:
		spec.Scheduler = "none"
		return spec, nil
	case Holmes, PerfIso:
		spec.Scheduler = string(cfg.Setting)
	default:
		return spec, fmt.Errorf("experiments: unknown setting %q", cfg.Setting)
	}
	spec.Batch = &scenario.BatchSpec{
		Kinds:      []string{"kmeans", "sort", "wordcount", "pagerank"},
		Continuous: true,
	}
	return spec, nil
}

// RunColocation executes one co-location run on a scenario node. What
// it adds to the scenario's window is its own: the Fig. 13 VPI observer,
// the reserved CPUs' utilisation, telemetry run labels, and the store
// and batch memory.
func RunColocation(cfg ColocationConfig) (*ColocationResult, error) {
	if cfg.RPS == 0 {
		cfg.RPS = defaultRPS(cfg.Store, cfg.Workload)
	}
	spec, err := colocationSpec(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Telemetry != nil {
		cfg.Telemetry.PublishInfo("run.store", cfg.Store)
		cfg.Telemetry.PublishInfo("run.workload", cfg.Workload)
		cfg.Telemetry.PublishInfo("run.setting", string(cfg.Setting))
	}
	node, err := scenario.Boot(spec, cfg.Telemetry, cfg.HolmesConfig)
	if err != nil {
		return nil, err
	}
	defer node.Stop()
	m, reserved := node.Machine, node.Reserved

	node.WarmUp(cfg.WarmupNs)
	lcBase := node.BusyCycles(reserved)
	res := &ColocationResult{Config: cfg}

	// Fig. 13 VPI sampling: an independent observer of the LC CPUs.
	if cfg.VPISampleNs > 0 {
		groups := make([]*perf.VPIGroup, 0, reserved.Count())
		for _, p := range reserved.CPUs() {
			g, err := perf.OpenVPI(m, hpe.StallsMemAny, p)
			if err != nil {
				return nil, err
			}
			groups = append(groups, g)
		}
		res.VPISeries.Name = fmt.Sprintf("vpi-%s-%s-%s", cfg.Store, cfg.Workload, cfg.Setting)
		var vpiHist *telemetry.Histogram
		if cfg.Telemetry != nil {
			vpiHist = cfg.Telemetry.Registry.Histogram("experiment_lc_vpi",
				"observer-sampled mean VPI across the reserved CPUs", 0.1, 10_000, 5)
		}
		stopVPI := m.SchedulePeriodic(cfg.VPISampleNs, func(now int64) {
			sum := 0.0
			for _, g := range groups {
				sum += g.Sample()
			}
			avg := sum / float64(len(groups))
			res.VPISeries.Add(now, avg)
			vpiHist.Observe(avg)
		})
		defer stopVPI()
	}

	w := node.Measure(cfg.DurationNs)
	svc := node.Services[0].Service
	res.Latency = svc.Latencies()
	res.AvgCPUUtil = w.AvgCPUUtil
	res.LCUtil = (node.BusyCycles(reserved) - lcBase) /
		(m.Config().FreqGHz * float64(cfg.DurationNs) * float64(reserved.Count()))
	res.CompletedJobs = w.CompletedJobs
	res.CompletedQueries = w.Queries[0]
	res.DaemonUtil, res.TelemetryUtil = w.DaemonUtil, w.TelemetryUtil
	if node.Holmes != nil {
		res.Invocations, res.Deallocations, res.Reallocations, res.Expansions = node.Holmes.Stats()
	}
	if mr, ok := svc.Store().(kvstore.MemoryReporter); ok {
		res.ServiceMemBytes = mr.ApproxMemory()
	}
	if node.Batch != nil {
		for _, job := range node.Batch.RunningJobs() {
			res.BatchMemBytes += job.Spec.MemoryBytes * int64(job.Spec.Containers)
		}
	}
	return res, nil
}
