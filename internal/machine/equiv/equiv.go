// Package equiv is the differential-equivalence harness for the
// machine's batched simulation paths. It runs a scenario twice — once
// with Config.IntervalBatching on, once off — on otherwise identical
// machines, snapshots everything externally observable (clock, per-CPU
// counters, busy cycles and exec counts, per-thread consumed cycles and
// completions, completion timestamps, kernel tick/migration/steal
// accounting, final runqueue shape, and the telemetry registry's full
// Prometheus dump) and diffs the snapshots field by field.
//
// The contract under test is strict bit-identity, not tolerance-based
// closeness: the interval-batched path claims to perform the identical
// floating-point operations in the identical order as per-tick stepping
// (DESIGN.md §11), so every float in the snapshot must compare equal
// with ==. Any divergence, however small, is a bug in the batching
// proofs, and the harness prints the first diverging field so the
// failure is actionable. The same Snapshot/Diff machinery backs the
// fuzz target and the registry-wide dump tests, and the CI batch-equiv
// job uploads the Diff output as an artifact on failure.
package equiv

import (
	"fmt"
	"strings"

	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/hpe"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/telemetry"
)

// telemetryHolder wires a fresh registry into the kernel and renders it
// for byte comparison.
type telemetryHolder struct{ set *telemetry.Set }

func attachTelemetry(k *kernel.Kernel) *telemetryHolder {
	set := telemetry.NewSet()
	k.SetTelemetry(set)
	return &telemetryHolder{set: set}
}

func (h *telemetryHolder) dump() string {
	var b strings.Builder
	if err := telemetry.WritePrometheus(&b, h.set.Registry); err != nil {
		return "telemetry dump error: " + err.Error()
	}
	return b.String()
}

// Scenario describes one workload shape to compare across simulation
// paths. Build receives a freshly constructed machine/kernel pair and
// populates it with processes, work and scheduled events; the harness
// then runs the machine for DurationNs and snapshots it.
type Scenario struct {
	Name string
	// Topology of the simulated server; zero value means the default.
	Topology cpuid.Topology
	// Seed for the machine's RNG streams.
	Seed uint64
	// DurationNs is how long to run after Build returns.
	DurationNs int64
	// Telemetry attaches a registry (kernel depth histogram, steal and
	// migration counters) and includes its dump in the snapshot.
	Telemetry bool
	// Build populates the machine. record tags an observable occurrence
	// (completion, probe) with the current simulated time; the tagged
	// sequence must match across paths in content and order.
	Build func(m *machine.Machine, k *kernel.Kernel, record func(tag string, nowNs int64))
}

// Snapshot is everything a Scenario run exposes to comparison.
type Snapshot struct {
	Name         string
	NowNs        int64
	BatchedTicks int64 // informational: not compared by Diff
	TickCount    int
	Counters     []hpe.Counters
	BusyCycles   []float64
	ExecCounts   []uint64  // machine.ExecCount per CPU
	ThreadCycles []float64 // per kernel thread, in PID/TID order
	ThreadItems  []int64
	Records      []string // "tag@now" in occurrence order
	Migrations   int64
	Steals       int64
	QueueLens    []int
	Telemetry    string // Prometheus dump; empty unless Scenario.Telemetry
}

// Run builds and executes the scenario with interval batching forced on
// or off, returning the final snapshot.
func Run(s Scenario, batching bool) Snapshot {
	cfg := machine.DefaultConfig()
	cfg.IntervalBatching = batching
	if s.Topology != (cpuid.Topology{}) {
		cfg.Topology = s.Topology
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	m := machine.New(cfg)
	k := kernel.New(m)

	var set *telemetryHolder
	if s.Telemetry {
		set = attachTelemetry(k)
	}

	var records []string
	record := func(tag string, nowNs int64) {
		records = append(records, fmt.Sprintf("%s@%d", tag, nowNs))
	}
	if s.Build != nil {
		s.Build(m, k, record)
	}
	m.RunFor(s.DurationNs)

	snap := Snapshot{
		Name:         s.Name,
		NowNs:        m.Now(),
		BatchedTicks: m.BatchedTicks(),
		TickCount:    k.TickCount(),
		Records:      records,
	}
	snap.Migrations, snap.Steals = k.Migrations()
	n := m.Topology().LogicalCPUs()
	for p := 0; p < n; p++ {
		snap.Counters = append(snap.Counters, m.Counters(p))
		snap.BusyCycles = append(snap.BusyCycles, m.BusyCycles(p))
		snap.ExecCounts = append(snap.ExecCounts, m.ExecCount(p))
		snap.QueueLens = append(snap.QueueLens, k.QueueLen(p))
	}
	for _, proc := range k.Processes() {
		for _, t := range proc.Threads() {
			snap.ThreadCycles = append(snap.ThreadCycles, t.HW.ConsumedCycles)
			snap.ThreadItems = append(snap.ThreadItems, t.HW.CompletedItems)
		}
	}
	if set != nil {
		snap.Telemetry = set.dump()
	}
	return snap
}

// Diff compares two snapshots for bit-identity and returns a
// human-readable report of every divergence, or "" when identical.
// BatchedTicks is excluded: the two paths are supposed to differ there.
func Diff(a, b Snapshot) string {
	var d strings.Builder
	line := func(format string, args ...any) { fmt.Fprintf(&d, format+"\n", args...) }

	if a.NowNs != b.NowNs {
		line("clock: %d vs %d", a.NowNs, b.NowNs)
	}
	if a.TickCount != b.TickCount {
		line("kernel tick count: %d vs %d", a.TickCount, b.TickCount)
	}
	if a.Migrations != b.Migrations {
		line("migrations: %d vs %d", a.Migrations, b.Migrations)
	}
	if a.Steals != b.Steals {
		line("steals: %d vs %d", a.Steals, b.Steals)
	}
	diffSlices(&d, "cpu counters", a.Counters, b.Counters,
		func(x, y hpe.Counters) bool { return x == y })
	diffSlices(&d, "cpu busy cycles", a.BusyCycles, b.BusyCycles,
		func(x, y float64) bool { return x == y })
	diffSlices(&d, "cpu exec counts", a.ExecCounts, b.ExecCounts,
		func(x, y uint64) bool { return x == y })
	diffSlices(&d, "queue lens", a.QueueLens, b.QueueLens,
		func(x, y int) bool { return x == y })
	diffSlices(&d, "thread cycles", a.ThreadCycles, b.ThreadCycles,
		func(x, y float64) bool { return x == y })
	diffSlices(&d, "thread items", a.ThreadItems, b.ThreadItems,
		func(x, y int64) bool { return x == y })
	diffSlices(&d, "records", a.Records, b.Records,
		func(x, y string) bool { return x == y })
	if a.Telemetry != b.Telemetry {
		line("telemetry dump diverged:\n--- a\n%s\n--- b\n%s", a.Telemetry, b.Telemetry)
	}
	return d.String()
}

func diffSlices[T any](d *strings.Builder, what string, a, b []T, eq func(x, y T) bool) {
	if len(a) != len(b) {
		fmt.Fprintf(d, "%s: length %d vs %d\n", what, len(a), len(b))
		return
	}
	for i := range a {
		if !eq(a[i], b[i]) {
			fmt.Fprintf(d, "%s[%d]: %v vs %v\n", what, i, a[i], b[i])
		}
	}
}

// Compare runs the scenario with batching off (reference) and on, and
// returns the two snapshots plus their diff.
func Compare(s Scenario) (ref, batched Snapshot, diff string) {
	ref = Run(s, false)
	batched = Run(s, true)
	return ref, batched, Diff(ref, batched)
}
