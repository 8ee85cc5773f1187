package experiments

import (
	"fmt"
	"strings"

	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/microbench"
	"github.com/holmes-colocation/holmes/internal/stats"
	"github.com/holmes-colocation/holmes/internal/trace"
)

// Fig2Result holds the §2.2 micro benchmark measurements: the block
// access latency distribution of each of the six thread placements.
type Fig2Result struct {
	Cases []Fig2CaseResult
}

// Fig2CaseResult is one placement's measurement.
type Fig2CaseResult struct {
	Case    microbench.Fig2Case
	Summary stats.Summary
	CDF     []stats.CDFPoint
}

// RunFig2 executes the six placements for the profile's micro window
// each (2 s at the full profile).
func RunFig2(o Options) Fig2Result {
	cfg := machine.DefaultConfig()
	cfg.Seed = o.Seed
	var out Fig2Result
	for _, c := range microbench.Fig2Cases() {
		s := microbench.RunFig2Case(cfg, c, o.microDuration())
		out.Cases = append(out.Cases, Fig2CaseResult{
			Case:    c,
			Summary: s.Summarize(),
			CDF:     s.CDF(20),
		})
	}
	return out
}

// Render prints the Fig. 2 rows: per-case latency statistics plus the
// CDF series the figure plots.
func (r Fig2Result) Render() string {
	tb := trace.NewTable("Fig 2: memory access latency from different sources (ns per 1MB block)",
		"case", "description", "mean", "p50", "p90", "p99")
	for _, c := range r.Cases {
		tb.AddRow(int(c.Case), c.Case.Name(), c.Summary.Mean, c.Summary.P50,
			c.Summary.P90, c.Summary.P99)
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteByte('\n')
	plot := trace.NewPlot("CDF of memory access latency", "latency ns", "fraction of accesses")
	plot.LogX = true
	for _, c := range r.Cases {
		plot.AddCDF(fmt.Sprintf("case%d", int(c.Case)), c.CDF)
	}
	b.WriteString(plot.String())
	b.WriteString("\nCDF series (latency_ns fraction):\n")
	for _, c := range r.Cases {
		fmt.Fprintf(&b, "# case %d: %s\n", int(c.Case), c.Case.Name())
		for _, p := range c.CDF {
			fmt.Fprintf(&b, "%.0f\t%.3f\n", p.Value, p.Fraction)
		}
	}
	return b.String()
}
