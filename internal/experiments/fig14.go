package experiments

import (
	"fmt"
	"strings"

	"github.com/holmes-colocation/holmes/internal/rng"
	"github.com/holmes-colocation/holmes/internal/scenario"
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

// RunFig14 sweeps the deallocation threshold E under workload-a, as in
// §6.4, over every service at the full profile and over Redis and
// RocksDB otherwise. Every (store, E) point — and each store's Alone
// baseline — is an independent simulation run, fanned out across up to
// o.Parallel goroutines with seeds derived from (seed, store, point), so
// the sweep is order-independent.
func RunFig14(o Options) (Fig14Result, error) {
	var out Fig14Result
	stores := StoreNames()
	if !o.Full {
		stores = []string{"redis", "rocksdb"}
	}
	es := fig14Es()
	// Each store contributes its Alone baseline, then one run per E.
	var cfgs []ColocationConfig
	for _, store := range stores {
		add := func(setting Setting, tag string, h *scenario.HolmesSpec) {
			cfg := o.colocation(store, "a", setting)
			cfg.DurationNs = o.colocDuration() / 2
			cfg.WarmupNs = o.colocWarmup()
			cfg.Seed = rng.DeriveSeed(o.Seed, "fig14", store, tag)
			cfg.Holmes = h
			cfgs = append(cfgs, cfg)
		}
		add(Alone, "alone", nil)
		for _, e := range es {
			add(Holmes, fmt.Sprintf("E=%.0f", e), &scenario.HolmesSpec{E: e})
		}
	}
	runs, err := runColocations(o, cfgs)
	if err != nil {
		return out, err
	}

	per := 1 + len(es)
	for si, store := range stores {
		aSum := runs[si*per].Latency.Summarize()
		for ei, e := range es {
			sum := runs[si*per+1+ei].Latency.Summarize()
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
