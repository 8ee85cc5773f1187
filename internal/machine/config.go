package machine

import (
	"fmt"
	"sync/atomic"

	"github.com/holmes-colocation/holmes/internal/cpuid"
)

// intervalBatchingDisabled inverts the process-wide default for
// Config.IntervalBatching, consulted by DefaultConfig. It exists so the
// equivalence tests can flip every machine built from DefaultConfig to the
// per-tick reference path without plumbing a setting through each
// construction site. Batching is on by default; the interval engine is
// bit-identical to per-tick stepping.
var intervalBatchingDisabled atomic.Bool

// SetDefaultIntervalBatching sets whether DefaultConfig enables the
// interval-batched loaded path. Call it before building machines (test
// setup); machines already constructed keep the value they were built
// with.
func SetDefaultIntervalBatching(on bool) { intervalBatchingDisabled.Store(!on) }

// DefaultIntervalBatching reports the current process-wide default.
func DefaultIntervalBatching() bool { return !intervalBatchingDisabled.Load() }

// The machine model's calibration, fitted to the paper's measurements on a
// 2×Xeon Gold 6143 testbed:
//
//   - A single m-thread reading random 1 MB blocks of a 600 MB buffer sees
//     ~1,400 µs per block (Fig. 2). With 16,384 cache lines per block that
//     is ~85 ns of effective stall per line, which at 2 GHz is 170 cycles —
//     dramCycles (memory-level parallelism folded in).
//   - Two m-threads on hyperthread siblings see ~2,300 µs per block, a
//     1.64× inflation, which fixes interfDRAMMem ≈ 0.65.
//   - The §3.1 measurement program peaks near 74 kRPS alone and ~45 kRPS
//     with a saturated sibling; 74/45 ≈ 1.64 confirms the same coefficient.
//   - A compute-bound sibling inflates memory latency far less (Fig. 2
//     case 6), fixing interfDRAMEU ≈ 0.12.
const (
	// Effective per-access stall cycles at zero contention. Memory-level
	// parallelism is folded into these values.
	l2Cycles   = 6
	l3Cycles   = 30
	dramCycles = 170
	// storeCycles is the commit cost of a store; the store buffer hides
	// the rest.
	storeCycles = 1.5

	// SMT interference coefficients: the effective latency of an access at
	// a level is multiplied by 1 + Mem*sibMemDuty + EU*sibEUDuty, where the
	// duty cycles are the sibling hardware thread's previous-tick memory
	// stall and execution fractions.
	interfDRAMMem = 0.65
	interfDRAMEU  = 0.12
	interfL3Mem   = 0.20
	interfL3EU    = 0.10
	interfL2Mem   = 0.05

	// Execution-unit contention: compute cycles are multiplied by
	// 1 + euContention*sibEUDuty + euMemContention*sibMemDuty.
	euContention    = 0.50
	euMemContention = 0.25

	// bandwidthGBs is the total DRAM bandwidth. The queueing penalty is
	// negligible below ~80% utilization, modeling the paper's finding that
	// bandwidth is not the bottleneck on modern servers.
	bandwidthGBs = 40

	// Counter attribution noise: per-counter multiplicative
	// Ornstein-Uhlenbeck noise modeling run-to-run PMU attribution
	// variance. Sigmas are stationary standard deviations; the state
	// updates every noiseIntervalNs with correlation time noiseTauNs.
	// This is what separates the Table 1 correlation scores of the four
	// candidate events.
	noiseIntervalNs   = 10_000_000  // 10 ms
	noiseTauNs        = 500_000_000 // 0.5 s
	sigmaStallsMemAny = 0.002
	sigmaCyclesMemAny = 0.006
	sigmaStallsL3Miss = 0.012
	sigmaCyclesL3Miss = 0.08

	// Occupancy model for CYCLES_L3_MISS: cycles with >=1 outstanding
	// L3-miss per DRAM access, as a function of the thread's own memory
	// duty (more in-flight misses overlap the window) and the sibling's
	// (interference lengthens individual misses but degrades miss-level
	// parallelism, shrinking per-access occupancy).
	occupancyBase   = 0.90
	occupancyOwnMem = 0.0
	occupancySibMem = 0.12
	// cyclesMemAnyExecFrac is the fraction of execution cycles that also
	// count toward CYCLES_MEM_ANY occupancy (execution overlapping
	// outstanding loads).
	cyclesMemAnyExecFrac = 0.15
)

// Config parameterizes the simulated server; the model's calibration is
// fixed (see the constants above).
type Config struct {
	Topology cpuid.Topology
	// FreqGHz is the core clock. Cycle<->nanosecond conversions use it.
	FreqGHz float64
	// TickNs is the simulation quantum. Latency-critical experiments use
	// 10 µs; hour-scale throughput runs can raise it for speed.
	TickNs int64
	// Seed drives all stochastic parts of the machine (counter attribution
	// noise). Simulations are deterministic given a seed.
	Seed uint64

	// IntervalBatching lets the machine advance loaded stretches — runs of
	// ticks between scheduling events during which the runnable set and
	// the per-CPU assignment are provably fixed — through a batched inner
	// loop that touches only the active logical CPUs, instead of the
	// full-width per-tick scan. The batched path performs the identical
	// floating-point operations in the identical order, so every
	// observable output (counters, completions, latencies, telemetry) is
	// bit-identical with the flag on or off; see DESIGN.md §11 for the
	// equivalence contract. Requires a scheduler implementing
	// IntervalScheduler (the kernel does); with any other scheduler the
	// flag is inert. DefaultConfig enables it unless
	// SetDefaultIntervalBatching(false) was called.
	IntervalBatching bool
}

// DefaultConfig returns the paper's server: the default topology at
// 2 GHz with a 10 µs tick.
func DefaultConfig() Config {
	return Config{
		Topology:         cpuid.DefaultTopology(),
		FreqGHz:          2.0,
		TickNs:           10_000, // 10 µs
		Seed:             1,
		IntervalBatching: DefaultIntervalBatching(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.FreqGHz <= 0 {
		return fmt.Errorf("machine: FreqGHz must be positive, got %v", c.FreqGHz)
	}
	if c.TickNs <= 0 {
		return fmt.Errorf("machine: TickNs must be positive, got %d", c.TickNs)
	}
	return nil
}

// CyclesPerTick returns the cycle budget of one logical CPU per tick.
func (c Config) CyclesPerTick() float64 {
	return c.FreqGHz * float64(c.TickNs)
}

// CyclesToNs converts cycles to nanoseconds at the configured frequency.
func (c Config) CyclesToNs(cycles float64) float64 {
	return cycles / c.FreqGHz
}
