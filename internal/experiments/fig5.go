package experiments

import (
	"fmt"
	"strings"

	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/hpe"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/perf"
	"github.com/holmes-colocation/holmes/internal/stats"
	"github.com/holmes-colocation/holmes/internal/workload"
)

// Fig5Load is one prober intensity of §3.2.
type Fig5Load struct {
	Name string
	// RPS is the per-sibling-thread request rate of the memory access
	// program (requests of microbench.ProbeBlockBytes).
	RPS float64
}

// Fig5Loads returns the paper's Low/Medium/High settings.
func Fig5Loads() []Fig5Load {
	return []Fig5Load{{"low", 20_000}, {"medium", 40_000}, {"high", 60_000}}
}

// Fig5Point is one (service, load) measurement, normalized against the
// Alone baseline as (V - V_alone)/V_alone.
type Fig5Point struct {
	Store  string
	Load   string
	AvgRel float64
	P99Rel float64
	VPIRel float64
}

// Fig5Result holds the effectiveness study measurements.
type Fig5Result struct {
	Points []Fig5Point
}

// fig5Run measures one service with an optional sibling prober at the
// given per-thread RPS. It returns (avg, p99, mean VPI across LC CPUs).
func fig5Run(store string, proberRPS float64, durationNs int64, seed uint64) (float64, float64, float64, error) {
	n, err := newServedNode(store, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	// The memory access program: one thread per LC sibling at proberRPS.
	if proberRPS > 0 {
		prober := n.k.Spawn("mem-prober", 4)
		for i, th := range prober.Threads() {
			sib := n.m.Topology().SiblingOf(i)
			if err := n.k.SetAffinity(th.TID, cpuid.MaskOf(sib)); err != nil {
				return 0, 0, 0, err
			}
			scheduleProbeArrivals(n.m, th, proberRPS)
		}
	}

	// VPI groups on the four LC CPUs (summed, as §3.2 does).
	groups := make([]*perf.VPIGroup, servedCPUs.Count())
	for i := range groups {
		groups[i], err = perf.OpenVPI(n.m, hpe.StallsMemAny, i)
		if err != nil {
			return 0, 0, 0, err
		}
	}

	sum := n.measure(durationNs, func() {
		for _, g := range groups {
			g.Sample() // reset the interval
		}
	}).Summarize()
	vpi := 0.0
	for _, g := range groups {
		vpi += g.Sample()
	}
	return sum.Mean, sum.P99, vpi, nil
}

// scheduleProbeArrivals issues fixed-rate DRAM block requests on a kernel
// thread (the §3.2 "program that can access memory with configurable
// request rate").
func scheduleProbeArrivals(m *machine.Machine, th *kernel.Thread, rps float64) {
	period := int64(1e9 / rps)
	cost := workload.ReadBytes(workload.DRAM, 10<<10)
	var arrive func(int64)
	arrive = func(nowNs int64) {
		th.HW.Push(workload.Work(cost))
		m.Schedule(nowNs+period, arrive)
	}
	m.Schedule(m.Now()+period, arrive)
}

// RunFig5 executes the §3.2 effectiveness study for four times the
// profile's micro window. A nil stores slice runs all four services.
func RunFig5(o Options, stores []string) (Fig5Result, error) {
	durationNs, seed := o.microDuration()*4, o.Seed
	var out Fig5Result
	if stores == nil {
		stores = StoreNames()
	}
	for _, store := range stores {
		aAvg, aP99, aVPI, err := fig5Run(store, 0, durationNs, seed)
		if err != nil {
			return out, err
		}
		for _, load := range Fig5Loads() {
			avg, p99, vpi, err := fig5Run(store, load.RPS, durationNs, seed)
			if err != nil {
				return out, err
			}
			out.Points = append(out.Points, Fig5Point{
				Store:  store,
				Load:   load.Name,
				AvgRel: stats.RelativeChange(avg, aAvg),
				P99Rel: stats.RelativeChange(p99, aP99),
				VPIRel: stats.RelativeChange(vpi, aVPI),
			})
		}
	}
	return out, nil
}

// Render prints the Fig. 5 bars: normalized latency and VPI per service
// and load.
func (r Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString("== Fig 5: normalized avg/p99 latency and VPI vs Alone ==\n")
	fmt.Fprintf(&b, "%-12s %-8s %-10s %-10s %-10s\n", "service", "load", "avg", "p99", "vpi")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-12s %-8s %-10.3f %-10.3f %-10.3f\n",
			p.Store, p.Load, p.AvgRel, p.P99Rel, p.VPIRel)
	}
	b.WriteString("\n(A value of 0.3 means 30% higher than Alone; the paper's finding is\nthat VPI growth tracks latency growth across loads and services.)\n")
	return b.String()
}
