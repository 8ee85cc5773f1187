package experiments

import (
	"fmt"
	"strings"

	"github.com/holmes-colocation/holmes/internal/core"
	"github.com/holmes-colocation/holmes/internal/rng"
	"github.com/holmes-colocation/holmes/internal/runner"
)

// Fig14Point is one (service, E) measurement: Holmes latency normalized
// to Alone at several percentiles.
type Fig14Point struct {
	Store string
	E     float64
	Avg   float64 // holmes/alone ratios
	P50   float64
	P90   float64
	P95   float64
	P99   float64
}

// Fig14Result holds the threshold sensitivity sweep.
type Fig14Result struct {
	Points []Fig14Point
}

// fig14Es lists the swept thresholds: 40 to 80, step 10, as in §6.4.
func fig14Es() []float64 { return []float64{40, 50, 60, 70, 80} }

// RunFig14 sweeps the deallocation threshold E for every service under
// workload-a, as in §6.4. Every (store, E) point — and each store's Alone
// baseline — is an independent simulation run, fanned out across up to
// workers goroutines with seeds derived from (seed, store, point), so the
// sweep is order-independent. warmupNs <= 0 keeps the default warmup.
func RunFig14(durationNs, warmupNs int64, seed uint64, stores []string, workers int) (Fig14Result, error) {
	var out Fig14Result
	if stores == nil {
		stores = StoreNames()
	}
	es := fig14Es()

	run := func(store string, setting Setting, hc *core.Config, tag string) (*ColocationResult, error) {
		cfg := DefaultColocation(store, "a", setting)
		cfg.DurationNs = durationNs
		if warmupNs > 0 {
			cfg.WarmupNs = warmupNs
		}
		cfg.Seed = rng.DeriveSeed(seed, "fig14", store, tag)
		cfg.HolmesConfig = hc
		return RunColocation(cfg)
	}

	// Alone baselines and E points all run concurrently; results land in
	// per-index slots so assembly order never depends on completion order.
	alones := make([]*ColocationResult, len(stores))
	points := make([]*ColocationResult, len(stores)*len(es))
	var tasks []func() error
	for si, store := range stores {
		si, store := si, store
		tasks = append(tasks, func() error {
			r, err := run(store, Alone, nil, "alone")
			alones[si] = r
			return err
		})
		for ei, e := range es {
			si, ei, e := si, ei, e
			tasks = append(tasks, func() error {
				hc := core.DefaultConfig()
				hc.E = e
				hc.SNs = 500_000_000
				r, err := run(store, Holmes, &hc, fmt.Sprintf("E=%.0f", e))
				points[si*len(es)+ei] = r
				return err
			})
		}
	}
	if err := runner.Run(workers, tasks); err != nil {
		return out, err
	}

	for si, store := range stores {
		aSum := alones[si].Latency.Summarize()
		for ei, e := range es {
			sum := points[si*len(es)+ei].Latency.Summarize()
			out.Points = append(out.Points, Fig14Point{
				Store: store,
				E:     e,
				Avg:   ratio(sum.Mean, aSum.Mean),
				P50:   ratio(sum.P50, aSum.P50),
				P90:   ratio(sum.P90, aSum.P90),
				P95:   ratio(sum.P95, aSum.P95),
				P99:   ratio(sum.P99, aSum.P99),
			})
		}
	}
	return out, nil
}

func ratio(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return v / base
}

// Render prints the sensitivity sweep.
func (r Fig14Result) Render() string {
	var b strings.Builder
	b.WriteString("== Fig 14: Holmes latency normalized to Alone vs threshold E ==\n")
	fmt.Fprintf(&b, "%-12s %-6s %-8s %-8s %-8s %-8s %-8s\n",
		"service", "E", "avg", "p50", "p90", "p95", "p99")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-12s %-6.0f %-8.3f %-8.3f %-8.3f %-8.3f %-8.3f\n",
			p.Store, p.E, p.Avg, p.P50, p.P90, p.P95, p.P99)
	}
	b.WriteString("\n(Paper: E=40 yields latency closest to Alone; larger E values\ntolerate more interference before evicting batch siblings.)\n")
	return b.String()
}
