package experiments

import (
	"fmt"
	"io"

	"github.com/holmes-colocation/holmes/internal/report"
	"github.com/holmes-colocation/holmes/internal/stats"
	"github.com/holmes-colocation/holmes/internal/trace"
)

// ReportIDs lists the experiments the HTML report lays out, in order.
func ReportIDs() []string {
	return []string{"fig2", "fig3", "table1", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "table3", "fig14", "table4", "ablations"}
}

// WriteHTMLReport lays out results — RunResults(o, ReportIDs()) — as a
// self-contained HTML document with SVG figures: the graphical
// counterpart of the text outputs. o names the seed and profile.
func WriteHTMLReport(w io.Writer, o Options, results []Result) error {
	ids := ReportIDs()
	if len(results) != len(ids) {
		return fmt.Errorf("experiments: HTML report needs %d results (%v), got %d", len(ids), ids, len(results))
	}
	res := map[string]Result{}
	for i, id := range ids {
		res[id] = results[i]
	}
	var doc report.Document
	doc.Title = "Holmes: SMT Interference Diagnosis and CPU Scheduling for Job Co-location"
	doc.Subtitle = fmt.Sprintf("Go reproduction report (seed %d, %s profile)",
		o.Seed, profileName(o))

	// Fig. 2 — micro benchmark CDFs.
	fig2 := res["fig2"].(Fig2Result)
	sec := doc.AddSection("fig2", "Fig. 2 — memory access latency from different sources",
		"m-threads read random 1 MB blocks; only placements sharing a physical core's two hardware threads inflate latency.")
	tb := trace.NewTable("", "case", "mean ns", "p50", "p99")
	chart := report.Chart{Title: "CDF of 1MB block latency", XLabel: "latency ns", YLabel: "fraction", LogX: true}
	for _, c := range fig2.Cases {
		tb.AddRow(c.Case.Name(), c.Summary.Mean, c.Summary.P50, c.Summary.P99)
		chart.Series = append(chart.Series, cdfSeries(fmt.Sprintf("case %d", int(c.Case)), c.CDF))
	}
	sec.Tables = append(sec.Tables, tb)
	sec.Charts = append(sec.Charts, chart)

	// Fig. 3 — Redis placements.
	fig3 := res["fig3"].(Fig3Result)
	sec = doc.AddSection("fig3", "Fig. 3 — Redis under Alone / Co-separate / Co-hyper",
		"Batch jobs on separate physical cores are free; on hyperthread siblings they inflate the whole distribution.")
	chart = report.Chart{Title: "Redis query latency CDF", XLabel: "latency ns", YLabel: "fraction", LogX: true}
	tb = trace.NewTable("", "setting", "mean ns", "p99 ns")
	for _, s := range Fig3Settings() {
		sum := fig3.Settings[s]
		tb.AddRow(string(s), sum.Mean, sum.P99)
		chart.Series = append(chart.Series, cdfSeries(string(s), fig3.CDFs[s]))
	}
	sec.Tables = append(sec.Tables, tb)
	sec.Charts = append(sec.Charts, chart)

	// Table 1 — metric selection.
	sweep := res["table1"].(Table1Result)
	sec = doc.AddSection("table1", "Table 1 — candidate HPE correlation study",
		"Pearson correlation between memory access latency and each event's VPI across the measurement sweep. STALLS_MEM_ANY (0x14A3) wins, as in the paper.")
	tb = trace.NewTable("", "event", "event#", "measured corr", "paper corr")
	for _, c := range sweep.Sweep.Correlations() {
		tb.AddRow(c.Event.Name(), fmt.Sprintf("%#04x", uint16(c.Event)),
			fmt.Sprintf("%.4f", c.Corr), fmt.Sprintf("%.4f", paperCorrelations[c.Event]))
	}
	sec.Tables = append(sec.Tables, tb)

	// Figs. 7-10, each from its store's runs in the co-location suite.
	for _, store := range StoreNames() {
		id := fmt.Sprintf("fig%d", figNumber(store))
		suite := res[id].(SuiteResult).Suite
		sec = doc.AddSection(id,
			fmt.Sprintf("Fig. %d — %s query latency under three settings", figNumber(store), store),
			"Alone is the latency ideal; Holmes tracks it under co-location; PerfIso's HT-oblivious isolation inflates the tail.")
		for _, wl := range WorkloadsFor(store) {
			chart := report.Chart{
				Title:  fmt.Sprintf("%s workload-%s", store, wl),
				XLabel: "latency ns", YLabel: "fraction", LogX: true,
			}
			tb := trace.NewTable(fmt.Sprintf("workload-%s", wl), "setting", "mean ns", "p90 ns", "p99 ns")
			for _, set := range Settings() {
				r := suite.cached(store, wl, set)
				sum := r.Latency.Summarize()
				tb.AddRow(string(set), sum.Mean, sum.P90, sum.P99)
				chart.Series = append(chart.Series, cdfSeries(string(set), r.Latency.CDF(30)))
			}
			sec.Tables = append(sec.Tables, tb)
			sec.Charts = append(sec.Charts, chart)
		}
	}

	// Fig. 11 — SLO violations.
	suite := res["fig11"].(SuiteResult).Suite
	sec = doc.AddSection("fig11", "Fig. 11 — SLO violation ratios",
		"SLO = the Alone p90 per service/workload, so Alone violates 10% by construction.")
	tb = trace.NewTable("", "service", "workload", "alone", "holmes", "perfiso")
	for _, store := range StoreNames() {
		for _, wl := range WorkloadsFor(store) {
			slo := suite.cached(store, wl, Alone).Latency.Percentile(90)
			row := []interface{}{store, "workload-" + wl}
			for _, set := range Settings() {
				row = append(row, fmt.Sprintf("%.1f%%", 100*suite.cached(store, wl, set).Latency.FractionAbove(slo)))
			}
			tb.AddRow(row...)
		}
	}
	sec.Tables = append(sec.Tables, tb)

	// Fig. 12 — utilization.
	suite = res["fig12"].(SuiteResult).Suite
	sec = doc.AddSection("fig12", "Fig. 12 — average CPU utilization",
		"Both co-location settings fill the machine; Alone wastes it.")
	tb = trace.NewTable("", "service", "workload", "alone", "holmes", "perfiso")
	for _, store := range StoreNames() {
		for _, wl := range WorkloadsFor(store) {
			row := []interface{}{store, "workload-" + wl}
			for _, set := range Settings() {
				row = append(row, fmt.Sprintf("%.1f%%", 100*suite.cached(store, wl, set).AvgCPUUtil))
			}
			tb.AddRow(row...)
		}
	}
	sec.Tables = append(sec.Tables, tb)

	// Fig. 13 — VPI timeline.
	sec = doc.AddSection("fig13", "Fig. 13 — VPI on the LC CPUs over time (RocksDB, workload-a)",
		"PerfIso runs hottest and most volatile; Holmes stays near the Alone baseline.")
	chart = report.Chart{Title: "average VPI on LC CPUs", XLabel: "time us", YLabel: "VPI"}
	for _, tl := range res["fig13"].(Fig13Result).Timelines {
		s := report.Series{Name: string(tl.Setting)}
		for _, p := range tl.Series.Downsample(80).Points {
			s.Xs = append(s.Xs, float64(p.TimeNs)/1e3)
			s.Ys = append(s.Ys, p.Value)
		}
		chart.Series = append(chart.Series, s)
	}
	sec.Charts = append(sec.Charts, chart)

	// Table 3 — throughput.
	suite = res["table3"].(SuiteResult).Suite
	sec = doc.AddSection("table3", "Table 3 — throughput comparison (Redis, workload-a)",
		"PerfIso completes marginally more batch work; Holmes trades a sliver of it for latency assurance.")
	tb = trace.NewTable("", "setting", "avg CPU", "batch jobs (window)")
	for _, set := range []Setting{PerfIso, Holmes, Alone} {
		r := suite.cached("redis", "a", set)
		tb.AddRow(string(set), fmt.Sprintf("%.1f%%", 100*r.AvgCPUUtil), r.CompletedJobs)
	}
	sec.Tables = append(sec.Tables, tb)

	// Fig. 14 — sensitivity, as a chart of normalized average vs E, one
	// series per store in the sweep's order.
	sec = doc.AddSection("fig14", "Fig. 14 — threshold E sensitivity",
		"Holmes latency normalized to Alone; E=40 (the paper's default) tracks Alone, larger thresholds admit interference.")
	chart = report.Chart{Title: "normalized average latency vs E", XLabel: "threshold E", YLabel: "latency / alone"}
	for _, p := range res["fig14"].(Fig14Result).Points {
		if n := len(chart.Series); n == 0 || chart.Series[n-1].Name != p.Store {
			chart.Series = append(chart.Series, report.Series{Name: p.Store})
		}
		s := &chart.Series[len(chart.Series)-1]
		s.Xs = append(s.Xs, p.E)
		s.Ys = append(s.Ys, p.Avg)
	}
	sec.Charts = append(sec.Charts, chart)

	// Table 4 — convergence.
	sec = doc.AddSection("table4", "Table 4 — convergence speed",
		"Holmes reacts within one or two invocation intervals — five orders of magnitude faster than feedback controllers.")
	tb = trace.NewTable("", "approach", "measured", "paper")
	for _, row := range res["table4"].(Table4Result).Rows {
		measured := formatDuration(row.ConvergenceNs)
		if row.MinNs != row.MaxNs {
			measured = formatDuration(row.MinNs) + "-" + formatDuration(row.MaxNs)
		}
		tb.AddRow(row.Approach, measured, row.Paper)
	}
	sec.Tables = append(sec.Tables, tb)

	// Ablations — the design-choice studies, as preformatted text.
	sec = doc.AddSection("ablations", "Ablations — design choices under test",
		"Counter-per-second vs VPI (§3.1), the usage trigger (Challenge I), and the monitor interval (§6.7).")
	sec.Pre = res["ablations"].Render()

	return doc.WriteHTML(w)
}

func profileName(o Options) string {
	if o.Full {
		return "full"
	}
	return "quick"
}

func cdfSeries(name string, cdf []stats.CDFPoint) report.Series {
	s := report.Series{Name: name}
	for _, p := range cdf {
		s.Xs = append(s.Xs, p.Value)
		s.Ys = append(s.Ys, p.Fraction)
	}
	return s
}
