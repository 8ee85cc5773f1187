// Package scenario runs declarative co-location simulations described as
// JSON documents: a machine, one or more latency-critical services, a
// batch-job stream, and a CPU-scheduling policy (Holmes, PerfIso, or
// none). It is the configuration-driven face of the reproduction — what a
// downstream user points at their own workload mix — and it generalizes
// the paper's evaluation to multiple co-located services sharing one
// reserved pool. Boot builds that node; Run and the paper's one-service
// co-location runs (experiments.RunColocation) both drive it.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/holmes-colocation/holmes/internal/kvstore"
	"github.com/holmes-colocation/holmes/internal/lcservice"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/stats"
	"github.com/holmes-colocation/holmes/internal/trace"
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
	if h := s.Holmes; h != nil && (h.E < 0 || h.IntervalUs < 0 || h.QuietSeconds < 0 || h.ReservedCPUs < 0) {
		return fmt.Errorf("scenario: holmes e, interval_us, quiet_seconds and reserved_cpus must not be negative (0 = default)")
	}
	if len(s.Services) == 0 {
		return fmt.Errorf("scenario: at least one service required")
	}
	for _, svc := range s.Services {
		if !lcservice.IsStore(svc.Store) {
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

// Run executes the scenario: boot, warm up, measure, report. A zero
// Spec.Seed runs with the machine's default seed.
func Run(spec Spec) (*Report, error) {
	boot := spec
	if boot.Seed == 0 {
		boot.Seed = machine.DefaultConfig().Seed
	}
	n, err := Boot(boot, nil)
	if err != nil {
		return nil, err
	}
	defer n.Stop()
	n.WarmUp(int64(spec.WarmupSeconds * 1e9))
	w := n.Measure(int64(spec.DurationSeconds * 1e9))

	rep := &Report{Spec: spec, AvgCPUUtil: w.AvgCPUUtil, CompletedJobs: w.CompletedJobs,
		DaemonUtil: w.DaemonUtil}
	for i, s := range n.Services {
		sr := ServiceReport{
			Name:     defaultStr(s.Spec.Name, s.Spec.Store),
			Workload: defaultStr(s.Spec.Workload, "a"),
			Queries:  w.Queries[i],
			Summary:  s.Service.Latencies().Summarize(),
		}
		if mr, ok := s.Service.Store().(kvstore.MemoryReporter); ok {
			sr.MemBytes = mr.ApproxMemory()
		}
		rep.Services = append(rep.Services, sr)
	}
	if n.Holmes != nil {
		_, rep.Deallocations, rep.Reallocations, rep.Expansions = n.Holmes.Stats()
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
