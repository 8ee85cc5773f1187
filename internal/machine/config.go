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

// Config parameterizes the simulated server. The defaults are calibrated
// against the paper's measurements on a 2×Xeon Gold 6143 testbed:
//
//   - A single m-thread reading random 1 MB blocks of a 600 MB buffer sees
//     ~1,400 µs per block (Fig. 2). With 16,384 cache lines per block that
//     is ~85 ns of effective stall per line, which at 2 GHz is 170 cycles —
//     the DRAMCycles default (memory-level parallelism folded in).
//   - Two m-threads on hyperthread siblings see ~2,300 µs per block, a
//     1.64× inflation, which fixes InterfDRAMMem ≈ 0.65.
//   - The §3.1 measurement program peaks near 74 kRPS alone and ~45 kRPS
//     with a saturated sibling; 74/45 ≈ 1.64 confirms the same coefficient.
//   - A compute-bound sibling inflates memory latency far less (Fig. 2
//     case 6), fixing InterfDRAMEU ≈ 0.12.
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

	// Effective per-access stall cycles at zero contention. Memory-level
	// parallelism is folded into these values.
	L2Cycles   float64
	L3Cycles   float64
	DRAMCycles float64
	// StoreCycles is the commit cost of a store; the store buffer hides
	// the rest.
	StoreCycles float64

	// SMT interference coefficients: the effective latency of an access at
	// a level is multiplied by 1 + Mem*sibMemDuty + EU*sibEUDuty, where the
	// duty cycles are the sibling hardware thread's previous-tick memory
	// stall and execution fractions.
	InterfDRAMMem float64
	InterfDRAMEU  float64
	InterfL3Mem   float64
	InterfL3EU    float64
	InterfL2Mem   float64

	// Execution-unit contention: compute cycles are multiplied by
	// 1 + EUContention*sibEUDuty + EUMemContention*sibMemDuty.
	EUContention    float64
	EUMemContention float64

	// BandwidthGBs is the total DRAM bandwidth. The queueing penalty is
	// negligible below ~80% utilization, modeling the paper's finding that
	// bandwidth is not the bottleneck on modern servers.
	BandwidthGBs float64

	// Counter attribution noise: per-counter multiplicative
	// Ornstein-Uhlenbeck noise modeling run-to-run PMU attribution
	// variance. Sigmas are stationary standard deviations; the state
	// updates every NoiseIntervalNs with correlation time NoiseTauNs.
	// This is what separates the Table 1 correlation scores of the four
	// candidate events.
	NoiseIntervalNs   int64
	NoiseTauNs        int64
	SigmaStallsMemAny float64
	SigmaCyclesMemAny float64
	SigmaStallsL3Miss float64
	SigmaCyclesL3Miss float64

	// Occupancy model for CYCLES_L3_MISS: cycles with >=1 outstanding
	// L3-miss per DRAM access, as a function of the thread's own memory
	// duty (more in-flight misses overlap the window) and the sibling's
	// (interference lengthens individual misses but degrades miss-level
	// parallelism, shrinking per-access occupancy).
	OccupancyBase   float64
	OccupancyOwnMem float64
	OccupancySibMem float64
	// CyclesMemAnyExecFrac is the fraction of execution cycles that also
	// count toward CYCLES_MEM_ANY occupancy (execution overlapping
	// outstanding loads).
	CyclesMemAnyExecFrac float64
}

// DefaultConfig returns the calibrated configuration described above.
func DefaultConfig() Config {
	return Config{
		Topology:         cpuid.DefaultTopology(),
		FreqGHz:          2.0,
		TickNs:           10_000, // 10 µs
		Seed:             1,
		IntervalBatching: DefaultIntervalBatching(),

		L2Cycles:    6,
		L3Cycles:    30,
		DRAMCycles:  170,
		StoreCycles: 1.5,

		InterfDRAMMem: 0.65,
		InterfDRAMEU:  0.12,
		InterfL3Mem:   0.20,
		InterfL3EU:    0.10,
		InterfL2Mem:   0.05,

		EUContention:    0.50,
		EUMemContention: 0.25,

		BandwidthGBs: 40,

		NoiseIntervalNs:   10_000_000,  // 10 ms
		NoiseTauNs:        500_000_000, // 0.5 s
		SigmaStallsMemAny: 0.002,
		SigmaCyclesMemAny: 0.006,
		SigmaStallsL3Miss: 0.012,
		SigmaCyclesL3Miss: 0.08,

		OccupancyBase:   0.90,
		OccupancyOwnMem: 0.0,
		OccupancySibMem: 0.12,

		CyclesMemAnyExecFrac: 0.15,
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
	if c.DRAMCycles <= 0 || c.L3Cycles <= 0 || c.L2Cycles < 0 {
		return fmt.Errorf("machine: invalid memory latencies")
	}
	if c.BandwidthGBs <= 0 {
		return fmt.Errorf("machine: BandwidthGBs must be positive")
	}
	if c.NoiseIntervalNs <= 0 || c.NoiseTauNs <= 0 {
		return fmt.Errorf("machine: noise interval and tau must be positive")
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
