// Package perfbench measures the simulation engine's hot path — the
// per-tick loop every figure, colocation run and cluster round funnels
// through — and emits the numbers as a machine-readable report
// (BENCH_tick.json) so the repository carries a benchmark trajectory the
// way it carries golden experiment outputs.
//
// Two tick-engine scenarios bracket the load spectrum:
//
//   - idle-heavy: a machine with a kernel scheduler and a sparse periodic
//     timer but no runnable work. This is the regime the idle fast-forward
//     targets; large simulated windows (cluster warmups, sleep-heavy batch
//     phases) are dominated by it.
//   - loaded-colocation: service-style periodic bursts plus batch-style
//     compute chunks on SMT siblings, the alternating busy/idle cadence a
//     real colocation run produces.
//   - loaded-batched: four threads pinned one-per-logical-CPU on two
//     SMT sibling pairs, kept runnable by millisecond-period refills, so
//     the interval engine sees the longest stretches the machine model
//     allows (no timeslice rotation on single-thread runqueues, no
//     migrations). This is the regime the interval-batched loaded path
//     targets; the delta against loaded-colocation shows how much of the
//     batching win the event-dense cadence gives back.
//   - loaded-telemetry: the same colocation load with the Holmes daemon
//     running and a full telemetry set (registry, latency tracer, span
//     recorder) attached — the worst-case observability configuration.
//     The delta against loaded-colocation is the measured overhead of
//     the daemon plus its telemetry and span recording.
//
// A traffic-engine entry times the open-loop traffic control plane (a
// small cluster under the default diurnal topology) so balancer dispatch,
// replica reconciliation and autoscaler costs are tracked, and a final
// entry times a small registry experiment end to end, so changes to setup
// cost and the non-tick layers show up too.
package perfbench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"github.com/holmes-colocation/holmes/internal/cgroupfs"
	"github.com/holmes-colocation/holmes/internal/cluster"
	"github.com/holmes-colocation/holmes/internal/core"
	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/experiments"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/scenario"
	"github.com/holmes-colocation/holmes/internal/telemetry"
	"github.com/holmes-colocation/holmes/internal/workload"
)

// Schema identifies the report layout for downstream tooling.
const Schema = "holmes/bench-tick/v1"

// Options sizes the measurement windows.
type Options struct {
	// IdleSimNs / LoadedSimNs are the simulated windows of the two
	// tick-engine scenarios.
	IdleSimNs   int64
	LoadedSimNs int64
	// ExperimentID / ExperimentScale pick the end-to-end experiment run.
	ExperimentID    string
	ExperimentScale float64
	// Seed drives every simulation in the report.
	Seed uint64
}

// Quick returns the profile `make bench-smoke` and CI use: seconds of wall
// time, enough simulated time for steady-state rates.
func Quick() Options {
	return Options{
		IdleSimNs:       4_000_000_000, // 4 s simulated
		LoadedSimNs:     2_000_000_000,
		ExperimentID:    "fig3",
		ExperimentScale: 0.05,
		Seed:            1,
	}
}

// TickResult is one tick-engine scenario's measurement.
type TickResult struct {
	Name          string  `json:"name"`
	SimNs         int64   `json:"sim_ns"`
	Ticks         int64   `json:"ticks"`
	WallNs        int64   `json:"wall_ns"`
	NsPerTick     float64 `json:"ns_per_tick"`
	TicksPerSec   float64 `json:"ticks_per_sec"`
	AllocsPerTick float64 `json:"allocs_per_tick"`
	BytesPerTick  float64 `json:"bytes_per_tick"`
}

// ExperimentResult is the end-to-end experiment timing.
type ExperimentResult struct {
	ID     string  `json:"id"`
	Scale  float64 `json:"scale"`
	WallMs float64 `json:"wall_ms"`
}

// TrafficBenchResult times the open-loop traffic plane end to end: a
// small cluster driven by the default diurnal topology, measured as
// control-plane rounds and dispatched requests per wall second. It
// captures the cost layers the tick scenarios do not — balancer
// dispatch, per-replica reconciliation and the autoscaler — on top of
// the node simulations they feed.
type TrafficBenchResult struct {
	Nodes          int     `json:"nodes"`
	Users          int64   `json:"users"`
	Rounds         int     `json:"rounds"`
	Arrivals       int64   `json:"arrivals"`
	WallMs         float64 `json:"wall_ms"`
	RoundsPerSec   float64 `json:"rounds_per_sec"`
	ArrivalsPerSec float64 `json:"arrivals_per_sec"`
}

// ScaleBenchResult times one control-plane round loop at a given fleet
// size: a fixed busy set (four services plus a small batch stream) on a
// fleet that is otherwise quiescent, so rounds/sec vs node count tracks
// how the sharded registry and level-of-detail fast-forward amortize the
// idle majority. Mode "sharded-lod" is the production path (scoring
// placer over shard aggregates, LoD auto).
type ScaleBenchResult struct {
	Nodes        int     `json:"nodes"`
	Mode         string  `json:"mode"`
	Rounds       int     `json:"rounds"`
	WallMs       float64 `json:"wall_ms"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	LoDSkips     int     `json:"lod_skips"`
}

// Report is the full BENCH_tick.json payload.
type Report struct {
	Schema    string             `json:"schema"`
	GoVersion string             `json:"go_version"`
	Scenarios []TickResult       `json:"scenarios"`
	Traffic   TrafficBenchResult `json:"traffic"`
	// TrafficResilience is the same control plane with the request-path
	// resilience layer attached; the delta against Traffic is the layer's
	// bookkeeping cost.
	TrafficResilience TrafficBenchResult `json:"traffic_resilience"`
	// Scale is the rounds/sec-vs-fleet-size trajectory.
	Scale      []ScaleBenchResult `json:"scale"`
	Experiment ExperimentResult   `json:"experiment"`
}

// buildIdle constructs the idle-heavy scenario: kernel installed, one
// spawned-then-drained process so the runqueues exist, and a 1 ms periodic
// timer as the only event traffic.
func buildIdle(seed uint64) *machine.Machine {
	cfg := machine.DefaultConfig()
	cfg.Seed = seed
	m := machine.New(cfg)
	kernel.New(m)
	m.SchedulePeriodic(1_000_000, func(int64) {})
	return m
}

// buildLoaded constructs the loaded-colocation scenario: two service
// threads receiving a 2-tick burst every 100 µs and two batch threads
// receiving a 5-tick compute-plus-DRAM chunk every 250 µs, so busy ticks
// and idle gaps interleave the way daemon-driven colocation runs do.
func buildLoaded(seed uint64) *machine.Machine {
	cfg := machine.DefaultConfig()
	cfg.Seed = seed
	m := machine.New(cfg)
	k := kernel.New(m)
	svc := k.Spawn("svc", 2)
	batch := k.Spawn("batch", 2)
	perTick := cfg.CyclesPerTick()
	burst := workload.Work(workload.Compute(2 * perTick))
	var chunk workload.Cost
	chunk.ComputeCycles = 4 * perTick
	chunk.Acc[workload.DRAM].Loads = 100
	chunkItem := workload.Work(chunk)
	m.SchedulePeriodic(100_000, func(int64) {
		for _, t := range svc.Threads() {
			t.HW.Push(burst)
		}
	})
	m.SchedulePeriodic(250_000, func(int64) {
		for _, t := range batch.Threads() {
			t.HW.Push(chunkItem)
		}
	})
	return m
}

// buildBatched constructs the loaded-batched scenario: two service and
// two batch threads pinned one-per-logical-CPU across two physical cores,
// each core carrying one service and one batch hyperthread, refilled with
// multi-tick work every millisecond. Every runqueue holds a single pinned
// thread, so nothing rotates, steals or migrates, and the per-CPU
// assignment stays fixed for entire refill periods — the best case for
// interval batching, bounded only by event and noise deadlines.
func buildBatched(seed uint64) (*machine.Machine, error) {
	cfg := machine.DefaultConfig()
	cfg.Seed = seed
	m := machine.New(cfg)
	k := kernel.New(m)
	svc := k.Spawn("svc", 2)
	batch := k.Spawn("batch", 2)
	cores := cfg.Topology.PhysicalCores()
	for i, t := range svc.Threads() {
		if err := k.SetAffinity(t.TID, cpuid.MaskOf(i)); err != nil {
			return nil, err
		}
	}
	for i, t := range batch.Threads() {
		if err := k.SetAffinity(t.TID, cpuid.MaskOf(i+cores)); err != nil {
			return nil, err
		}
	}
	perTick := cfg.CyclesPerTick()
	// Refill with roughly half a period of base work: SMT contention
	// inflates the effective cost, and the refill must stay below the
	// period so queues drain instead of growing without bound.
	burst := workload.Work(workload.Compute(50 * perTick))
	var chunk workload.Cost
	chunk.ComputeCycles = 35 * perTick
	chunk.Acc[workload.DRAM].Loads = 2000
	chunkItem := workload.Work(chunk)
	m.SchedulePeriodic(1_000_000, func(int64) {
		for _, t := range svc.Threads() {
			t.HW.Push(burst)
		}
		for _, t := range batch.Threads() {
			t.HW.Push(chunkItem)
		}
	})
	return m, nil
}

// buildTelemetry constructs the loaded-telemetry scenario: the colocation
// cadence of buildLoaded with the Holmes daemon sampling at its default
// interval and a full telemetry set attached, so every daemon decision
// runs the metric, latency-tracer and span-recording paths.
func buildTelemetry(seed uint64) (*machine.Machine, error) {
	cfg := machine.DefaultConfig()
	cfg.Seed = seed
	m := machine.New(cfg)
	k := kernel.New(m)
	fs := cgroupfs.NewFS()

	batch := k.Spawn("batch", 2)
	g, err := fs.Mkdir("/yarn/job_1/container_0")
	if err != nil {
		return nil, err
	}
	g.AddPid(batch.PID)

	dcfg := core.DefaultConfig()
	dcfg.ReservedCPUs = 2
	dcfg.SNs = 5_000_000
	dcfg.DaemonCPU = cfg.Topology.LogicalCPUs() - 1
	dcfg.Telemetry = telemetry.NewSet()
	d, err := core.Start(k, fs, dcfg)
	if err != nil {
		return nil, err
	}
	svc := k.Spawn("svc", 2)
	if err := d.RegisterLC(svc.PID); err != nil {
		return nil, err
	}

	perTick := cfg.CyclesPerTick()
	burst := workload.Work(workload.Compute(2 * perTick))
	var chunk workload.Cost
	chunk.ComputeCycles = 4 * perTick
	chunk.Acc[workload.DRAM].Loads = 100
	chunkItem := workload.Work(chunk)
	m.SchedulePeriodic(100_000, func(int64) {
		for _, t := range svc.Threads() {
			t.HW.Push(burst)
		}
	})
	m.SchedulePeriodic(250_000, func(int64) {
		for _, t := range batch.Threads() {
			t.HW.Push(chunkItem)
		}
	})
	return m, nil
}

// RunTrafficBench measures the traffic control plane: a 3-node cluster
// under the default diurnal topology at a modeled 60k users, serial
// workers so the number tracks per-round cost rather than parallelism.
func RunTrafficBench(seed uint64) (TrafficBenchResult, error) {
	return runTrafficBench(seed, nil)
}

// RunTrafficResilienceBench measures the same control plane with the full
// resilience layer attached — deadlines, per-attempt accounting, retry
// queue, budget, breaker and admission control. The delta against
// RunTrafficBench is the measured cost of the request-path resilience
// machinery on a healthy fleet (no faults, so retries stay rare and the
// number tracks bookkeeping, not storm dynamics).
func RunTrafficResilienceBench(seed uint64) (TrafficBenchResult, error) {
	return runTrafficBench(seed, &scenario.ResilienceSpec{
		DeadlineMs:         60,
		MaxAttempts:        3,
		RetryBackoffRounds: 1,
		RetryJitterRounds:  2,
		RetryBudget:        0.1,
		BreakerFailureRate: 0.5,
		ConcurrencyLimit:   128,
	})
}

func runTrafficBench(seed uint64, rz *scenario.ResilienceSpec) (TrafficBenchResult, error) {
	const users = 60_000
	spec := cluster.DefaultSpec()
	spec.Nodes = 3
	spec.Services = nil
	spec.Batch = cluster.BatchStream{}
	spec.WarmupSeconds = 0.5
	spec.DurationSeconds = 1.5
	spec.Seed = seed
	topo := scenario.DefaultTopology(users, spec.WarmupSeconds+spec.DurationSeconds)
	for i := range topo.Services {
		topo.Services[i].Resilience = rz
	}
	spec.Topology = &topo

	start := time.Now()
	res, err := cluster.Run(spec, cluster.RunOptions{Workers: 1})
	if err != nil {
		return TrafficBenchResult{}, fmt.Errorf("perfbench: traffic: %w", err)
	}
	wall := time.Since(start)
	hbNs := spec.HeartbeatMs * 1_000_000
	if hbNs <= 0 {
		hbNs = 50_000_000
	}
	rounds := int((spec.WarmupSeconds + spec.DurationSeconds) * 1e9 / float64(hbNs))
	wallSec := wall.Seconds()
	if wallSec <= 0 {
		wallSec = 1e-9
	}
	return TrafficBenchResult{
		Nodes:          spec.Nodes,
		Users:          users,
		Rounds:         rounds,
		Arrivals:       res.Traffic.Arrivals,
		WallMs:         float64(wall.Nanoseconds()) / 1e6,
		RoundsPerSec:   float64(rounds) / wallSec,
		ArrivalsPerSec: float64(res.Traffic.Arrivals) / wallSec,
	}, nil
}

// RunScaleBench measures one point of the node-count scaling trajectory:
// the same busy set at every fleet size, serial workers so the number is
// per-round control-plane cost.
func RunScaleBench(nodes int, seed uint64) (ScaleBenchResult, error) {
	spec := cluster.DefaultSpec()
	spec.Name = "scalebench"
	spec.Nodes = nodes
	spec.Placer = cluster.PlacerScore
	spec.LoD = cluster.LoDAuto
	spec.WarmupSeconds = 0.2
	spec.DurationSeconds = 0.8
	spec.Seed = seed
	// A light busy set: two services and a short batch burst. The point of
	// the trajectory is the cost of the idle majority, so the busy set must
	// not dominate the wall clock the way the experiment-grade specs do.
	spec.Services = []cluster.ServiceSpec{
		{Name: "redis-a", Store: "redis", Workload: "a", RPS: 5_000},
		{Name: "memcached-a", Store: "memcached", Workload: "a", RPS: 5_000},
	}
	spec.Batch = cluster.BatchStream{Pods: 8, PodsPerRound: 4, Containers: 1,
		ThreadsPerContainer: 2, WorkUnitsPerThread: 300}
	const mode = "sharded-lod"

	start := time.Now()
	res, err := cluster.Run(spec, cluster.RunOptions{Workers: 1})
	if err != nil {
		return ScaleBenchResult{}, fmt.Errorf("perfbench: scale %d/%s: %w", nodes, mode, err)
	}
	wall := time.Since(start)
	wallSec := wall.Seconds()
	if wallSec <= 0 {
		wallSec = 1e-9
	}
	return ScaleBenchResult{
		Nodes:        nodes,
		Mode:         mode,
		Rounds:       res.Rounds,
		WallMs:       float64(wall.Nanoseconds()) / 1e6,
		RoundsPerSec: float64(res.Rounds) / wallSec,
		LoDSkips:     res.LoDSkips,
	}, nil
}

// measure runs m for simNs and returns wall time and allocation rates. A
// short warmup run first lets queues and caches reach steady state so the
// allocs/tick number reflects the per-tick path, not setup.
func measure(name string, m *machine.Machine, simNs, tickNs int64) TickResult {
	m.RunFor(simNs / 8) // warmup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	m.RunFor(simNs)
	wall := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	ticks := simNs / tickNs
	if wall < 1 {
		wall = 1
	}
	return TickResult{
		Name:          name,
		SimNs:         simNs,
		Ticks:         ticks,
		WallNs:        wall,
		NsPerTick:     float64(wall) / float64(ticks),
		TicksPerSec:   float64(ticks) / (float64(wall) / 1e9),
		AllocsPerTick: float64(after.Mallocs-before.Mallocs) / float64(ticks),
		BytesPerTick:  float64(after.TotalAlloc-before.TotalAlloc) / float64(ticks),
	}
}

// RunIdle measures the idle-heavy scenario.
func RunIdle(simNs int64, seed uint64) TickResult {
	m := buildIdle(seed)
	return measure("idle-heavy", m, simNs, m.Config().TickNs)
}

// RunLoaded measures the loaded-colocation scenario.
func RunLoaded(simNs int64, seed uint64) TickResult {
	m := buildLoaded(seed)
	return measure("loaded-colocation", m, simNs, m.Config().TickNs)
}

// RunBatched measures the loaded-batched scenario.
func RunBatched(simNs int64, seed uint64) (TickResult, error) {
	m, err := buildBatched(seed)
	if err != nil {
		return TickResult{}, fmt.Errorf("perfbench: loaded-batched: %w", err)
	}
	return measure("loaded-batched", m, simNs, m.Config().TickNs), nil
}

// RunTelemetry measures the loaded-telemetry scenario.
func RunTelemetry(simNs int64, seed uint64) (TickResult, error) {
	m, err := buildTelemetry(seed)
	if err != nil {
		return TickResult{}, fmt.Errorf("perfbench: loaded-telemetry: %w", err)
	}
	return measure("loaded-telemetry", m, simNs, m.Config().TickNs), nil
}

// Collect runs every scenario and the end-to-end experiment.
func Collect(o Options) (*Report, error) {
	r := &Report{Schema: Schema, GoVersion: runtime.Version()}
	r.Scenarios = append(r.Scenarios, RunIdle(o.IdleSimNs, o.Seed))
	r.Scenarios = append(r.Scenarios, RunLoaded(o.LoadedSimNs, o.Seed))
	batched, err := RunBatched(o.LoadedSimNs, o.Seed)
	if err != nil {
		return nil, err
	}
	r.Scenarios = append(r.Scenarios, batched)
	telem, err := RunTelemetry(o.LoadedSimNs, o.Seed)
	if err != nil {
		return nil, err
	}
	r.Scenarios = append(r.Scenarios, telem)
	traffic, err := RunTrafficBench(o.Seed)
	if err != nil {
		return nil, err
	}
	r.Traffic = traffic
	resilient, err := RunTrafficResilienceBench(o.Seed)
	if err != nil {
		return nil, err
	}
	r.TrafficResilience = resilient

	for _, nodes := range []int{16, 64, 256} {
		sb, err := RunScaleBench(nodes, o.Seed)
		if err != nil {
			return nil, err
		}
		r.Scale = append(r.Scale, sb)
	}

	opts := experiments.Options{Seed: o.Seed, Scale: o.ExperimentScale, Parallel: 1}
	start := time.Now()
	if _, err := experiments.RunIDs(opts, []string{o.ExperimentID}); err != nil {
		return nil, fmt.Errorf("perfbench: experiment %s: %w", o.ExperimentID, err)
	}
	r.Experiment = ExperimentResult{
		ID:     o.ExperimentID,
		Scale:  o.ExperimentScale,
		WallMs: float64(time.Since(start).Nanoseconds()) / 1e6,
	}
	return r, nil
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render prints the report as a human-readable block.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tick engine benchmark (%s, %s)\n", r.Schema, r.GoVersion)
	for _, s := range r.Scenarios {
		fmt.Fprintf(&b, "  %-18s %8.1f Mticks/s  %6.1f ns/tick  %6.3f allocs/tick  %7.1f B/tick\n",
			s.Name, s.TicksPerSec/1e6, s.NsPerTick, s.AllocsPerTick, s.BytesPerTick)
	}
	fmt.Fprintf(&b, "  %-18s %8.1f ms wall  %6.1f rounds/s  %8.0f arrivals/s (%d nodes, %dk users)\n",
		"traffic-engine", r.Traffic.WallMs, r.Traffic.RoundsPerSec,
		r.Traffic.ArrivalsPerSec, r.Traffic.Nodes, r.Traffic.Users/1000)
	fmt.Fprintf(&b, "  %-18s %8.1f ms wall  %6.1f rounds/s  %8.0f arrivals/s (%d nodes, %dk users)\n",
		"traffic-resilience", r.TrafficResilience.WallMs, r.TrafficResilience.RoundsPerSec,
		r.TrafficResilience.ArrivalsPerSec, r.TrafficResilience.Nodes, r.TrafficResilience.Users/1000)
	for _, s := range r.Scale {
		fmt.Fprintf(&b, "  %-18s %8.1f ms wall  %6.1f rounds/s  %8d lod skips (%d nodes, %s)\n",
			"scale-bench", s.WallMs, s.RoundsPerSec, s.LoDSkips, s.Nodes, s.Mode)
	}
	fmt.Fprintf(&b, "  %-18s %8.1f ms wall (scale %g)\n",
		"experiment "+r.Experiment.ID, r.Experiment.WallMs, r.Experiment.Scale)
	return b.String()
}
