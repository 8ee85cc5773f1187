package core

import (
	"github.com/holmes-colocation/holmes/internal/hpe"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/perf"
)

// Monitor is Holmes's metric monitor (§4.2): each invocation it samples,
// for every logical CPU, the VPI of vpiEvent over the last
// interval and the CPU usage, and aggregates both per physical core.
type Monitor struct {
	m   *machine.Machine
	cfg Config

	vpiGroups []*perf.VPIGroup
	prevBusy  []float64
	lastNs    int64
	// freqGHz caches Config().FreqGHz: Config returns the whole struct by
	// value and Sample needs just this field, every 100 µs, per CPU.
	freqGHz float64

	// Latest samples, per logical CPU.
	vpi   []float64
	usage []float64
	// smoothed is an exponentially weighted usage average (~10 ms time
	// constant). Instantaneous 100 µs windows flip between 0 and 1 on a
	// bursty service; expansion decisions need the sustained level.
	smoothed []float64
	// smoothedVPI is the same EWMA over the VPI. The per-interval VPI
	// spikes with individual bursts; cluster-level decisions (is this
	// *node* persistently interfered?) need the sustained level, not the
	// instantaneous one the per-CPU sibling control reacts to.
	smoothedVPI []float64
	// Per-physical-core aggregates (both hardware threads accumulated,
	// §4.2 "aggregated per core").
	coreVPI   []float64
	coreUsage []float64
	// coreIndex[p] caches Topology().CoreOf(p). Sample runs every 100 µs
	// over every logical CPU; the topology is immutable, so the modulo and
	// bounds check have no business on that path.
	coreIndex []int
}

// vpiEvent is the HPE behind the VPI metric. The paper selects
// STALLS_MEM_ANY (0x14A3) via the Table 1 correlation study.
const vpiEvent = hpe.StallsMemAny

// NewMonitor opens the counters and takes the initial snapshot.
func NewMonitor(m *machine.Machine, cfg Config) (*Monitor, error) {
	n := m.Topology().LogicalCPUs()
	mon := &Monitor{
		m:           m,
		cfg:         cfg,
		vpiGroups:   make([]*perf.VPIGroup, n),
		prevBusy:    make([]float64, n),
		vpi:         make([]float64, n),
		usage:       make([]float64, n),
		smoothed:    make([]float64, n),
		smoothedVPI: make([]float64, n),
		coreVPI:     make([]float64, m.Topology().PhysicalCores()),
		coreUsage:   make([]float64, m.Topology().PhysicalCores()),
		coreIndex:   make([]int, n),
		lastNs:      m.Now(),
		freqGHz:     m.Config().FreqGHz,
	}
	for p := 0; p < n; p++ {
		mon.coreIndex[p] = m.Topology().CoreOf(p)
	}
	for p := 0; p < n; p++ {
		g, err := perf.OpenVPI(m, vpiEvent, p)
		if err != nil {
			return nil, err
		}
		mon.vpiGroups[p] = g
		mon.prevBusy[p] = m.BusyCycles(p)
	}
	return mon, nil
}

// Sample refreshes all metrics for the interval since the last call. A
// call with no elapsed simulated time is a no-op: re-sampling a zero-width
// window would clear the per-interval VPI readings (the groups were just
// reset) and recompute the core aggregates and EWMAs from those zeros,
// silently corrupting every consumer of the previous sample.
func (mon *Monitor) Sample(nowNs int64) {
	window := nowNs - mon.lastNs
	if window <= 0 {
		return
	}
	mon.lastNs = nowNs
	for i := range mon.coreVPI {
		mon.coreVPI[i] = 0
		mon.coreUsage[i] = 0
	}
	cycleBudget := mon.freqGHz * float64(window)
	alpha := float64(window) / 10e6 // ~10 ms time constant
	if alpha > 1 {
		alpha = 1
	}
	for p := range mon.vpiGroups {
		g := mon.vpiGroups[p]
		v, ran := 0.0, g.Ran()
		if ran {
			v = g.Sample()
		}
		if mon.cfg.CounterFault != nil {
			// Fault injection: everything downstream — the daemon's
			// sibling decisions, the EWMA, the cluster heartbeat — sees
			// only what the (possibly lying) counters report. It runs
			// for every CPU, ran or not, so its RNG draws don't depend
			// on the skip below.
			v = mon.cfg.CounterFault.FilterVPI(p, nowNs, v)
		}
		mon.vpi[p] = v
		// A CPU that has not run since the last sample has bitwise
		// unchanged busy cycles (see perf.VPIGroup.Ran), so the full
		// expression would compute clamp01(+0/cycleBudget) == +0.
		usage := 0.0
		if ran {
			busy := mon.m.BusyCycles(p)
			usage = clamp01((busy - mon.prevBusy[p]) / cycleBudget)
			mon.prevBusy[p] = busy
		}
		mon.usage[p] = usage
		mon.smoothed[p] += alpha * (mon.usage[p] - mon.smoothed[p])
		mon.smoothedVPI[p] += alpha * (mon.vpi[p] - mon.smoothedVPI[p])
		c := mon.coreIndex[p]
		mon.coreVPI[c] += mon.vpi[p]
		mon.coreUsage[c] += mon.usage[p]
	}
}

// VPI returns the last sampled VPI of logical CPU p.
func (mon *Monitor) VPI(p int) float64 { return mon.vpi[p] }

// Usage returns the last sampled busy fraction of logical CPU p.
func (mon *Monitor) Usage(p int) float64 { return mon.usage[p] }

// SmoothedUsage returns the EWMA busy fraction of logical CPU p.
func (mon *Monitor) SmoothedUsage(p int) float64 { return mon.smoothed[p] }

// SmoothedVPI returns the EWMA VPI of logical CPU p (~10 ms time
// constant) — the sustained interference level node heartbeats report.
func (mon *Monitor) SmoothedVPI(p int) float64 { return mon.smoothedVPI[p] }

// CoreVPI returns the last sampled per-core VPI sum for physical core c.
func (mon *Monitor) CoreVPI(c int) float64 { return mon.coreVPI[c] }

// CoreUsage returns the per-core busy sum (0..2) for physical core c.
func (mon *Monitor) CoreUsage(c int) float64 { return mon.coreUsage[c] }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
