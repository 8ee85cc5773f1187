package experiments

import (
	"fmt"
	"strings"

	"github.com/holmes-colocation/holmes/internal/hpe"
	"github.com/holmes-colocation/holmes/internal/microbench"
	"github.com/holmes-colocation/holmes/internal/stats"
	"github.com/holmes-colocation/holmes/internal/trace"
)

// paperCorrelations are the Table 1 values the paper reports, for
// side-by-side printing.
var paperCorrelations = map[hpe.Event]float64{
	hpe.CyclesL3Miss: -0.1748,
	hpe.StallsL3Miss: 0.9992,
	hpe.CyclesMemAny: 0.9997,
	hpe.StallsMemAny: 0.9999,
}

// SweepResult wraps the §3.1 measurement sweep behind Table 1 and Fig. 4.
type SweepResult struct {
	Sweep microbench.Sweep
}

// RunSweep executes the measurement program with the profile's sweep
// window per point (paper: 1 s).
func RunSweep(o Options) SweepResult {
	cfg := microbench.DefaultSweepConfig()
	cfg.WindowNs = o.sweepWindow()
	cfg.Machine.Seed = o.Seed
	return SweepResult{Sweep: microbench.RunSweep(cfg)}
}

// Table1Result is the registry's table1 entry: the sweep read as the HPE
// selection study.
type Table1Result struct{ SweepResult }

// Render prints Table 1.
func (r Table1Result) Render() string { return r.RenderTable1() }

// RenderTable1 prints the HPE selection study.
func (r SweepResult) RenderTable1() string {
	tb := trace.NewTable("Table 1: candidate HPEs and their correlation with memory access latency",
		"name", "event#", "corr (measured)", "corr (paper)")
	for _, c := range r.Sweep.Correlations() {
		tb.AddRow(c.Event.Name(), fmt.Sprintf("%#04x", uint16(c.Event)),
			fmt.Sprintf("%.4f", c.Corr),
			fmt.Sprintf("%.4f", paperCorrelations[c.Event]))
	}
	out := tb.String()
	out += fmt.Sprintf("\nSelected metric: %s (paper selects STALLS_MEM_ANY 0x14a3)\n",
		r.Sweep.SelectMetric())
	return out
}

// Fig4Result is the registry's fig4 entry: the sweep read as Fig. 4's
// normalized series.
type Fig4Result struct{ SweepResult }

// Render prints the normalized latency and VPI series of the three
// panels.
func (r Fig4Result) Render() string {
	var b strings.Builder
	panel := func(title string, pts []microbench.ProbePoint) {
		fmt.Fprintf(&b, "== %s ==\n", title)
		fmt.Fprintf(&b, "%-10s %-10s %-8s", "rps", "achieved", "lat")
		for _, e := range hpe.Candidates {
			fmt.Fprintf(&b, " %-14s", e.Name())
		}
		b.WriteByte('\n')
		// Normalize each series to its own maximum, as the paper does.
		lat := make([]float64, len(pts))
		vpis := map[hpe.Event][]float64{}
		for i, pt := range pts {
			lat[i] = pt.MeanLatNs
			for _, e := range hpe.Candidates {
				vpis[e] = append(vpis[e], pt.VPI[e])
			}
		}
		latN := stats.Normalize(lat)
		vpiN := map[hpe.Event][]float64{}
		for e, v := range vpis {
			vpiN[e] = stats.Normalize(v)
		}
		for i, pt := range pts {
			fmt.Fprintf(&b, "%-10.0f %-10.0f %-8.3f", pt.TargetRPS, pt.AchievedRPS, latN[i])
			for _, e := range hpe.Candidates {
				fmt.Fprintf(&b, " %-14.3f", vpiN[e][i])
			}
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}
	panel("Fig 4(a): one thread, varying RPS (0 target = closed loop)", r.Sweep.OneThread)
	panel("Fig 4(b): saturated thread vs sibling RPS", r.Sweep.MaxThread)
	panel("Fig 4(c): varying thread (sibling saturated)", r.Sweep.VarThread)
	return b.String()
}
