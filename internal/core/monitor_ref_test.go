package core

import (
	"fmt"
	"math"
	"testing"

	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/faults"
	"github.com/holmes-colocation/holmes/internal/hpe"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/perf"
	"github.com/holmes-colocation/holmes/internal/workload"
)

// refMonitor is the monitor without the sample skip: every Sample reads
// every CPU's counter group and busy cycles, and computes Equation 1 and
// the usage from the deltas. It is the oracle Monitor must match bit for
// bit.
type refMonitor struct {
	m      *machine.Machine
	cfg    Config
	groups []*perf.Group
	lastNs int64

	prevBusy, vpi, usage, smoothed, smoothedVPI []float64
	coreVPI, coreUsage                          []float64
}

func newRefMonitor(m *machine.Machine, cfg Config) *refMonitor {
	n := m.Topology().LogicalCPUs()
	r := &refMonitor{
		m: m, cfg: cfg, lastNs: m.Now(),
		groups:      make([]*perf.Group, n),
		prevBusy:    make([]float64, n),
		vpi:         make([]float64, n),
		usage:       make([]float64, n),
		smoothed:    make([]float64, n),
		smoothedVPI: make([]float64, n),
		coreVPI:     make([]float64, m.Topology().PhysicalCores()),
		coreUsage:   make([]float64, m.Topology().PhysicalCores()),
	}
	for p := 0; p < n; p++ {
		g, err := perf.OpenGroup(m, p, vpiEvent, hpe.Loads, hpe.Stores)
		if err != nil {
			panic(err)
		}
		r.groups[p] = g
		r.prevBusy[p] = m.BusyCycles(p)
	}
	return r
}

func (r *refMonitor) Sample(nowNs int64) {
	window := nowNs - r.lastNs
	if window <= 0 {
		return
	}
	r.lastNs = nowNs
	for i := range r.coreVPI {
		r.coreVPI[i] = 0
		r.coreUsage[i] = 0
	}
	cycleBudget := r.m.Config().FreqGHz * float64(window)
	alpha := float64(window) / 10e6
	if alpha > 1 {
		alpha = 1
	}
	for p, g := range r.groups {
		vals := g.ReadDelta()
		v := 0.0
		if den := vals[1] + vals[2]; den > 0 {
			v = vals[0] / den
		}
		if r.cfg.CounterFault != nil {
			v = r.cfg.CounterFault.FilterVPI(p, nowNs, v)
		}
		r.vpi[p] = v
		busy := r.m.BusyCycles(p)
		r.usage[p] = clamp01((busy - r.prevBusy[p]) / cycleBudget)
		r.prevBusy[p] = busy
		r.smoothed[p] += alpha * (r.usage[p] - r.smoothed[p])
		r.smoothedVPI[p] += alpha * (r.vpi[p] - r.smoothedVPI[p])
		c := r.m.Topology().CoreOf(p)
		r.coreVPI[c] += r.vpi[p]
		r.coreUsage[c] += r.usage[p]
	}
}

// TestMonitorMatchesAlwaysReadReference runs Monitor and the always-read
// oracle side by side over CPUs that alternate between idle and busy —
// sleeping bursts, a CPU that runs without consuming a cycle, CPUs that
// never run — with counter faults on and off and interval batching on
// and off, and requires every reading to match bit for bit after every
// sample.
func TestMonitorMatchesAlwaysReadReference(t *testing.T) {
	spec := faults.CounterSpec{DropRate: 0.05, NoiseStd: 0.2, StuckRate: 0.01,
		StuckDurationMs: 0.5, ZeroRate: 0.05}
	for _, batching := range []bool{false, true} {
		for _, faulty := range []bool{false, true} {
			t.Run(fmt.Sprintf("batching=%v/faults=%v", batching, faulty), func(t *testing.T) {
				mcfg := machine.DefaultConfig()
				mcfg.Topology = cpuid.Topology{Sockets: 1, Cores: 8}
				mcfg.IntervalBatching = batching
				m := machine.New(mcfg)
				k := kernel.New(m)

				cfg, refCfg := testDaemonConfig(), testDaemonConfig()
				if faulty {
					// Twin injectors on one seed draw the same stream
					// as long as both monitors filter every CPU.
					cfg.CounterFault = faults.NewCounterInjector(spec, 11)
					refCfg.CounterFault = faults.NewCounterInjector(spec, 11)
				}
				mon, err := NewMonitor(m, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefMonitor(m, refCfg)

				pin := func(name string, cpu int) *kernel.Thread {
					p := k.Spawn(name, 1)
					if err := p.SetAffinity(cpuid.MaskOf(cpu)); err != nil {
						t.Fatal(err)
					}
					return p.Threads()[0]
				}
				svc := pin("svc", 3)
				batch := pin("batch", m.Sibling(3))
				zero := pin("zero", 5)
				loop := pin("loop", 6) // busy throughout
				chain(loop, batchCost())
				m.SchedulePeriodic(1_300_000, func(int64) {
					for i := 0; i < 4; i++ {
						svc.HW.Push(workload.Work(lcCost()), workload.Sleep(int64(90_000+i*33_333)))
					}
					batch.HW.Push(workload.Work(batchCost()), workload.Sleep(250_000), workload.Work(batchCost()))
					zero.HW.Push(workload.Item{})
				})

				same := func(what string, p int, a, b float64) {
					if math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("t=%d %s(%d): monitor %v, reference %v", m.Now(), what, p, a, b)
					}
				}
				var idle, busy int
				for i := 0; i < 400; i++ {
					// Mostly the daemon's 100 µs cadence, with an
					// occasional long or off-grid window.
					d := int64(100_000)
					switch i % 17 {
					case 5:
						d = 2_345_678
					case 11:
						d = 37_000
					}
					m.RunFor(d)
					mon.Sample(m.Now())
					ref.Sample(m.Now())
					for p := range ref.vpi {
						same("VPI", p, mon.VPI(p), ref.vpi[p])
						same("Usage", p, mon.Usage(p), ref.usage[p])
						same("SmoothedUsage", p, mon.SmoothedUsage(p), ref.smoothed[p])
						same("SmoothedVPI", p, mon.SmoothedVPI(p), ref.smoothedVPI[p])
						if ref.usage[p] == 0 {
							idle++
						} else {
							busy++
						}
					}
					for c := range ref.coreVPI {
						same("CoreVPI", c, mon.CoreVPI(c), ref.coreVPI[c])
						same("CoreUsage", c, mon.CoreUsage(c), ref.coreUsage[c])
					}
				}
				if idle == 0 || busy == 0 {
					t.Fatalf("no alternation: %d idle and %d busy CPU-samples", idle, busy)
				}
				if batching && m.BatchedTicks() == 0 {
					t.Fatal("interval-batched path never ran")
				}
			})
		}
	}
}
