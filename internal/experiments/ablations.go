package experiments

import (
	"fmt"

	"github.com/holmes-colocation/holmes/internal/core"
	"github.com/holmes-colocation/holmes/internal/hpe"
	"github.com/holmes-colocation/holmes/internal/rng"
	"github.com/holmes-colocation/holmes/internal/scenario"
	"github.com/holmes-colocation/holmes/internal/trace"
)

// The ablation studies back the paper's design arguments with
// measurements the paper itself only narrates:
//
//   - ablation-cps: §3.1 rejects "counter value per second" because a
//     lightly loaded CPU next to a saturated sibling has high latency but
//     a small per-second count. The study recomputes Table 1 with the
//     per-second metric over a dataset that includes exactly that case.
//   - ablation-metric: Challenge I dismisses CPU usage as an
//     interference indicator. The study runs the full scheduler with a
//     usage trigger instead of the VPI and compares latency and batch
//     throughput.
//   - ablation-interval: §6.7 discusses the monitor interval as an
//     overhead-vs-latency trade-off; the study sweeps it.

// AblationCPS compares the per-second and per-instruction metrics.
type AblationCPS struct {
	VPI []Correlation2
	CPS []Correlation2
}

// Correlation2 is an event's correlation under one metric.
type Correlation2 struct {
	Event hpe.Event
	Corr  float64
}

// RunAblationCPS executes the comparison over the §3.1 sweep extended
// with the varying-thread points.
func RunAblationCPS(o Options) AblationCPS {
	r := RunSweep(o)
	var out AblationCPS
	for _, c := range r.Sweep.CorrelationsWithVarThread() {
		out.VPI = append(out.VPI, Correlation2{c.Event, c.Corr})
	}
	for _, c := range r.Sweep.CorrelationsPerSecond() {
		out.CPS = append(out.CPS, Correlation2{c.Event, c.Corr})
	}
	return out
}

// Render prints the comparison.
func (r AblationCPS) Render() string {
	tb := trace.NewTable("Ablation: counter-per-second vs counter-per-instruction (VPI)",
		"event", "corr per-second", "corr per-instruction")
	for i := range r.VPI {
		tb.AddRow(r.VPI[i].Event.Name(),
			fmt.Sprintf("%.4f", r.CPS[i].Corr),
			fmt.Sprintf("%.4f", r.VPI[i].Corr))
	}
	out := tb.String()
	out += "\n(§3.1: a thread at 5k RPS beside a saturated sibling has high\nlatency but a small per-second count — normalizing by retired memory\ninstructions is what makes the metric track latency.)\n"
	return out
}

// AblationMetricResult compares the VPI trigger against a usage trigger.
type AblationMetricResult struct {
	Rows []AblationMetricRow
}

// AblationMetricRow is one (trigger, metric) outcome.
type AblationMetricRow struct {
	Trigger       string
	MeanNs, P99Ns float64
	Jobs          int
	Deallocations int64
}

// RunAblationMetric runs Redis workload-a co-location under both
// triggers for the profile's co-location window, fanning the two runs
// across up to o.Parallel goroutines. Each trigger's seed derives from
// (seed, trigger), so the comparison is identical at any parallelism.
func RunAblationMetric(o Options) (AblationMetricResult, error) {
	var out AblationMetricResult
	metrics := []core.Metric{core.MetricVPI, core.MetricUsage}
	cfgs := make([]ColocationConfig, len(metrics))
	for i, metric := range metrics {
		cfgs[i] = o.colocation("redis", "a", Holmes)
		cfgs[i].DurationNs = o.colocDuration()
		cfgs[i].Seed = rng.DeriveSeed(o.Seed, "ablation-metric", string(metric))
		cfgs[i].Holmes = &scenario.HolmesSpec{TriggerMetric: string(metric)}
	}
	results, err := runColocations(o, cfgs)
	if err != nil {
		return out, err
	}
	for i, metric := range metrics {
		r := results[i]
		s := r.Latency.Summarize()
		out.Rows = append(out.Rows, AblationMetricRow{
			Trigger:       string(metric),
			MeanNs:        s.Mean,
			P99Ns:         s.P99,
			Jobs:          r.CompletedJobs,
			Deallocations: r.Deallocations,
		})
	}
	return out, nil
}

// Render prints the trigger comparison.
func (r AblationMetricResult) Render() string {
	tb := trace.NewTable("Ablation: VPI trigger vs CPU-usage trigger (Redis, workload-a)",
		"trigger", "mean us", "p99 us", "batch jobs", "evictions")
	for _, row := range r.Rows {
		tb.AddRow(row.Trigger,
			fmt.Sprintf("%.1f", row.MeanNs/1e3),
			fmt.Sprintf("%.1f", row.P99Ns/1e3),
			row.Jobs, row.Deallocations)
	}
	out := tb.String()
	out += "\n(The usage trigger fires on any busy LC CPU regardless of whether\nthe work is memory-bound, so it gives up batch capacity without a\nmatching latency benefit — the paper's Challenge I argument.)\n"
	return out
}

// AblationIntervalResult sweeps the monitor invocation interval.
type AblationIntervalResult struct {
	Rows []AblationIntervalRow
}

// AblationIntervalRow is one interval's outcome.
type AblationIntervalRow struct {
	IntervalNs    int64
	MeanNs, P99Ns float64
	DaemonUtil    float64
}

// RunAblationInterval sweeps §6.7's invocation interval over half the
// profile's co-location window, one concurrent run per interval (bounded
// by o.Parallel). Each interval's seed derives from (seed, interval).
func RunAblationInterval(o Options) (AblationIntervalResult, error) {
	var out AblationIntervalResult
	ivs := []int64{50_000, 100_000, 500_000, 1_000_000, 10_000_000}
	cfgs := make([]ColocationConfig, len(ivs))
	for i, iv := range ivs {
		cfgs[i] = o.colocation("redis", "a", Holmes)
		cfgs[i].DurationNs = o.colocDuration() / 2
		cfgs[i].Seed = rng.DeriveSeed(o.Seed, "ablation-interval", fmt.Sprint(iv))
		cfgs[i].Holmes = &scenario.HolmesSpec{IntervalUs: iv / 1000}
	}
	results, err := runColocations(o, cfgs)
	if err != nil {
		return out, err
	}
	for i, iv := range ivs {
		s := results[i].Latency.Summarize()
		out.Rows = append(out.Rows, AblationIntervalRow{
			IntervalNs: iv,
			MeanNs:     s.Mean,
			P99Ns:      s.P99,
			DaemonUtil: results[i].DaemonUtil,
		})
	}
	return out, nil
}

// Render prints the interval sweep.
func (r AblationIntervalResult) Render() string {
	tb := trace.NewTable("Ablation: monitor/scheduler invocation interval (§6.7)",
		"interval", "mean us", "p99 us", "daemon CPU")
	for _, row := range r.Rows {
		tb.AddRow(formatDuration(row.IntervalNs),
			fmt.Sprintf("%.1f", row.MeanNs/1e3),
			fmt.Sprintf("%.1f", row.P99Ns/1e3),
			fmt.Sprintf("%.2f%%", 100*row.DaemonUtil))
	}
	out := tb.String()
	out += "\n(The paper suggests matching the interval to the service's query\ntime: shorter intervals react faster at higher overhead; intervals\nfar above the query time let interference linger across bursts.)\n"
	return out
}

// AblationsResult is the registry's combined ablations entry.
type AblationsResult struct {
	CPS      AblationCPS
	Metric   AblationMetricResult
	Interval AblationIntervalResult
}

// RunAblations runs the three studies at the profile's windows. The two
// daemon studies keep DefaultColocation's fixed warm-up.
func RunAblations(o Options) (AblationsResult, error) {
	out := AblationsResult{CPS: RunAblationCPS(o)}
	var err error
	if out.Metric, err = RunAblationMetric(o); err != nil {
		return out, err
	}
	out.Interval, err = RunAblationInterval(o)
	return out, err
}

// Render prints the three studies in turn.
func (r AblationsResult) Render() string {
	return r.CPS.Render() + "\n" + r.Metric.Render() + "\n" + r.Interval.Render()
}
