// Package core implements Holmes, the paper's primary contribution: a
// user-space daemon that diagnoses SMT interference on memory access with
// the VPI metric (counter value per LOAD+STORE instruction, Equation 1,
// using HPE STALLS_MEM_ANY 0x14A3) and schedules CPUs so that best-effort
// batch jobs borrow the hyperthread siblings of latency-critical cores
// only while that metric says they are harmless.
//
// The daemon talks to the system through exactly the interfaces the real
// implementation uses: perf_event_open-style counters (internal/perf),
// sched_setaffinity (internal/kernel), and the cgroup filesystem
// (internal/cgroupfs) for batch-job discovery. Algorithms 1-3 of the
// paper map onto the daemon's launch (RegisterLC, cgroup discovery),
// running (tick) and exit (reapExitedLC, cgroup removal) paths.
package core

import (
	"fmt"

	"github.com/holmes-colocation/holmes/internal/telemetry"
)

// Metric selects the interference signal the scheduler keys on.
type Metric string

// Trigger metrics. MetricVPI is Holmes; MetricUsage is the naive
// alternative the paper's Challenge I dismisses ("CPU usage might be an
// indicator... however, a high CPU usage does not necessarily incur a
// large number of memory accesses"), kept as an ablation.
const (
	MetricVPI   Metric = "vpi"
	MetricUsage Metric = "usage"
)

// CounterFaultFilter intercepts every per-CPU VPI sample before the
// monitor stores it — the hook internal/faults uses to model counter
// multiplexing noise, stuck reads, and dead counters. Implementations
// run inside the machine's simulation and must be deterministic.
type CounterFaultFilter interface {
	// FilterVPI returns the reading the monitor should store for logical
	// CPU cpu at simulated time nowNs, given the true sample vpi.
	FilterVPI(cpu int, nowNs int64, vpi float64) float64
}

// CgroupFaultFilter decides how many times each cgroup watch event
// reaches the daemon's discovery path: 0 drops it (a lost inotify
// event), 2 duplicates it. Implementations must be deterministic.
type CgroupFaultFilter interface {
	Deliveries() int
}

// Config holds Holmes's tunables. Defaults are the paper's §5 settings.
type Config struct {
	// ReservedCPUs is the number of logical CPUs initially reserved for
	// latency-critical services (paper: 4 on a 32-logical-CPU server).
	ReservedCPUs int
	// E is the VPI deallocation threshold (paper: 40). When the VPI of
	// an LC CPU reaches E, batch jobs are evicted from its sibling.
	E float64
	// SNs is how long an LC CPU's VPI must stay below E before its
	// sibling is re-offered to batch jobs (paper: S seconds).
	SNs int64
	// IntervalNs is the monitor/scheduler invocation interval (paper:
	// 50 µs in §5, 100 µs in the evaluation discussion).
	IntervalNs int64
	// YarnRoot is the cgroup directory watched for batch containers.
	YarnRoot string
	// DaemonCPU pins the Holmes daemon thread (paper §6.6 suggests a
	// separate core). -1 disables overhead modeling.
	DaemonCPU int
	// TriggerMetric selects the eviction signal: MetricVPI (Holmes) or
	// MetricUsage (the naive ablation: evict the sibling whenever the
	// LC CPU's own usage reaches one half, blind to whether
	// the load actually touches memory).
	TriggerMetric Metric
	// CounterFault, when non-nil, filters every VPI sample before the
	// monitor stores it (fault injection; see internal/faults).
	CounterFault CounterFaultFilter
	// CgroupFault, when non-nil, drops or duplicates cgroup watch events
	// before they reach batch-job discovery (fault injection).
	CgroupFault CgroupFaultFilter
	// WatchdogWindow enables the counter-health watchdog: every this
	// many busy-CPU VPI samples the daemon checks what fraction looked
	// implausible (stuck, zero-while-busy, negative, or absurdly large)
	// and, once half of them did, falls back to safe mode — a
	// conservative static partition with every sibling withheld and the
	// reserved pool frozen — until readings stay plausible for SNs.
	// 0 disables the watchdog (the default: a single-machine run with
	// healthy counters should behave exactly as before this knob existed).
	WatchdogWindow int
	// RescanIntervalNs, when positive, re-walks the cgroup tree under
	// YarnRoot every interval, adopting containers whose creation events
	// were lost and dropping tracked containers whose groups vanished —
	// the reconciliation pass for a lossy watch path. 0 disables it.
	RescanIntervalNs int64
	// Telemetry, when non-nil, receives the daemon's metrics and, through
	// Telemetry.Spans, its decision spans — the daemon's one decision log.
	// The record path is allocation-free; when DaemonCPU enables overhead
	// modeling, the cycles spent recording are charged to the daemon
	// process and reported separately (Daemon.TelemetryCPUTimeNs).
	Telemetry *telemetry.Set
	// Spans, when non-nil, receives the daemon's causal decision-chain
	// spans (counter sample → VPI estimate → mask decision → cgroupfs
	// write, plus pool and safe-mode transitions). When nil, spans fall
	// back to Telemetry.Spans. Recording is pure observation: the modeled
	// span cost is charged whenever Telemetry is attached, independent of
	// whether a recorder is present, so runs are byte-identical with
	// tracing on or off.
	Spans *telemetry.SpanRecorder
	// SpanNode is the node ID stamped on the daemon's spans when a cluster
	// control plane runs many daemons side by side (default 0).
	SpanNode int
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		ReservedCPUs:  4,
		E:             40,
		SNs:           1_000_000_000, // 1 s
		IntervalNs:    100_000,       // 100 µs
		YarnRoot:      "/yarn",
		DaemonCPU:     -1,
		TriggerMetric: MetricVPI,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ReservedCPUs <= 0 {
		return fmt.Errorf("core: ReservedCPUs must be positive")
	}
	if c.E <= 0 {
		return fmt.Errorf("core: threshold E must be positive")
	}
	if c.SNs < 0 || c.IntervalNs <= 0 {
		return fmt.Errorf("core: invalid timing parameters")
	}
	switch c.TriggerMetric {
	case "", MetricVPI, MetricUsage:
	default:
		return fmt.Errorf("core: unknown trigger metric %q", c.TriggerMetric)
	}
	if c.WatchdogWindow < 0 || c.RescanIntervalNs < 0 {
		return fmt.Errorf("core: watchdog/rescan parameters must not be negative")
	}
	return nil
}
