package microbench

import (
	"github.com/holmes-colocation/holmes/internal/hpe"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/stats"
)

// Sweep reproduces the §3.1 measurement methodology behind Table 1 and
// Fig. 4: requests of a fixed size are issued to DRAM at increasing rates
// from one thread, then from two sibling threads (one saturated, one at a
// varying rate), while per-request latency and the VPI of each candidate
// HPE are recorded.
type Sweep struct {
	// OneThread is the single-thread rate sweep (Fig. 4a).
	OneThread []ProbePoint
	// MaxThread is the saturated thread's series as its sibling's rate
	// grows (Fig. 4b); point i corresponds to sibling rate VarThread[i].
	MaxThread []ProbePoint
	// VarThread is the varying sibling's own series (Fig. 4c).
	VarThread []ProbePoint
}

// SweepConfig parameterizes the sweep.
type SweepConfig struct {
	Machine machine.Config
	// WindowNs is the measurement window per point (paper: one second).
	WindowNs int64
	// StepRPS is the rate increment (paper: 5,000).
	StepRPS float64
}

// The sweeps' upper rates: the single-thread sweep stops below the
// paper's ~74,000 RPS peak, the sibling sweep at its ~45,000.
const (
	oneThreadMaxRPS = 70_000
	siblingMaxRPS   = 45_000
)

// DefaultSweepConfig mirrors the paper's settings.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		Machine:  machine.DefaultConfig(),
		WindowNs: 1_000_000_000,
		StepRPS:  5_000,
	}
}

// RunSweep executes the full measurement program.
func RunSweep(cfg SweepConfig) Sweep {
	var sw Sweep
	seed := cfg.Machine.Seed

	// One-thread configuration: rate from StepRPS to the maximum, then a
	// closed-loop point at the true peak.
	point := 0
	for rps := cfg.StepRPS; rps <= oneThreadMaxRPS; rps += cfg.StepRPS {
		point++
		sw.OneThread = append(sw.OneThread, runOnePoint(cfg, seed+uint64(point), rps))
	}
	point++
	sw.OneThread = append(sw.OneThread, runOnePoint(cfg, seed+uint64(point), 0))

	// Two-thread configuration: thread A saturated on logical CPU 0,
	// thread B on its sibling at a varying rate.
	for rps := cfg.StepRPS; rps <= siblingMaxRPS; rps += cfg.StepRPS {
		point++
		maxPt, varPt := runSiblingPoint(cfg, seed+uint64(point)*31, rps)
		sw.MaxThread = append(sw.MaxThread, maxPt)
		sw.VarThread = append(sw.VarThread, varPt)
	}
	return sw
}

// runOnePoint measures a single-thread point on a fresh machine.
func runOnePoint(cfg SweepConfig, seed uint64, rps float64) ProbePoint {
	mc := cfg.Machine
	mc.Seed = seed
	m := machine.New(mc)
	p := pinned{}
	m.SetScheduler(p)
	pr := NewProber(m, p, 0)
	pr.Start(rps)
	// Warm up briefly so duty cycles and noise states settle, then
	// discard and measure one window.
	m.RunFor(cfg.WindowNs / 10)
	pr.Snapshot(cfg.WindowNs/10, rps)
	m.RunFor(cfg.WindowNs)
	return pr.Snapshot(cfg.WindowNs, rps)
}

// runSiblingPoint measures one two-thread point: returns (saturated
// thread's point, varying thread's point).
func runSiblingPoint(cfg SweepConfig, seed uint64, sibRPS float64) (ProbePoint, ProbePoint) {
	mc := cfg.Machine
	mc.Seed = seed
	m := machine.New(mc)
	p := pinned{}
	m.SetScheduler(p)
	prMax := NewProber(m, p, 0)
	prVar := NewProber(m, p, mc.Topology.SiblingOf(0))
	prMax.Start(0) // closed loop
	prVar.Start(sibRPS)
	m.RunFor(cfg.WindowNs / 10)
	prMax.Snapshot(cfg.WindowNs/10, 0)
	prVar.Snapshot(cfg.WindowNs/10, sibRPS)
	m.RunFor(cfg.WindowNs)
	maxPt := prMax.Snapshot(cfg.WindowNs, 0)
	varPt := prVar.Snapshot(cfg.WindowNs, sibRPS)
	// Label the saturated thread's x-axis with the sibling's rate, as in
	// Fig. 4(b).
	maxPt.TargetRPS = sibRPS
	return maxPt, varPt
}

// Correlation is one Table 1 row: the Pearson correlation between the
// measured memory access latency and the event's VPI across all
// measurement points (one-thread sweep plus the saturated thread of the
// two-thread sweep).
type Correlation struct {
	Event hpe.Event
	Corr  float64
}

// Correlations computes the Table 1 rows from a sweep.
func (sw Sweep) Correlations() []Correlation {
	var lat []float64
	vpis := map[hpe.Event][]float64{}
	collect := func(pts []ProbePoint) {
		for _, pt := range pts {
			lat = append(lat, pt.MeanLatNs)
			for _, e := range hpe.Candidates {
				vpis[e] = append(vpis[e], pt.VPI[e])
			}
		}
	}
	collect(sw.OneThread)
	collect(sw.MaxThread)

	out := make([]Correlation, 0, len(hpe.Candidates))
	for _, e := range hpe.Candidates {
		out = append(out, Correlation{Event: e, Corr: stats.Pearson(lat, vpis[e])})
	}
	return out
}

// CorrelationsPerSecond computes the correlation between memory access
// latency and the *per-second* counter value — the naive metric §3.1
// rejects. The dataset includes the varying sibling thread's points,
// which is precisely where the per-second count fails: that thread sees
// interference-inflated latency while retiring few requests, so its
// counter rate stays low. Correlations come out far below the VPI's.
func (sw Sweep) CorrelationsPerSecond() []Correlation {
	var lat []float64
	cps := map[hpe.Event][]float64{}
	collect := func(pts []ProbePoint) {
		for _, pt := range pts {
			lat = append(lat, pt.MeanLatNs)
			for _, e := range hpe.Candidates {
				cps[e] = append(cps[e], pt.CPS[e])
			}
		}
	}
	collect(sw.OneThread)
	collect(sw.MaxThread)
	collect(sw.VarThread)

	out := make([]Correlation, 0, len(hpe.Candidates))
	for _, e := range hpe.Candidates {
		out = append(out, Correlation{Event: e, Corr: stats.Pearson(lat, cps[e])})
	}
	return out
}

// CorrelationsWithVarThread recomputes the VPI correlations over the same
// extended dataset CorrelationsPerSecond uses, for a like-for-like
// comparison in the ablation study.
func (sw Sweep) CorrelationsWithVarThread() []Correlation {
	var lat []float64
	vpis := map[hpe.Event][]float64{}
	collect := func(pts []ProbePoint) {
		for _, pt := range pts {
			lat = append(lat, pt.MeanLatNs)
			for _, e := range hpe.Candidates {
				vpis[e] = append(vpis[e], pt.VPI[e])
			}
		}
	}
	collect(sw.OneThread)
	collect(sw.MaxThread)
	collect(sw.VarThread)
	out := make([]Correlation, 0, len(hpe.Candidates))
	for _, e := range hpe.Candidates {
		out = append(out, Correlation{Event: e, Corr: stats.Pearson(lat, vpis[e])})
	}
	return out
}

// SelectMetric returns the event with the highest positive correlation —
// the paper's §3.1 selection procedure, which picks STALLS_MEM_ANY.
func (sw Sweep) SelectMetric() hpe.Event {
	best := hpe.Candidates[0]
	bestCorr := -2.0
	for _, c := range sw.Correlations() {
		if c.Corr > bestCorr {
			best, bestCorr = c.Event, c.Corr
		}
	}
	return best
}
