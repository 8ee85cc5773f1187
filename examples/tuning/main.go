// Tuning: the §6.4 parameter-sensitivity study on a single service. The
// deallocation threshold E trades latency for utilization: a low E evicts
// batch siblings at the first sign of interference, a high E tolerates
// interference for longer. The paper finds E=40 keeps latency closest to
// Alone; this example sweeps E for a chosen service and prints the
// normalized latency plus the utilization cost of each setting.
//
//	go run ./examples/tuning [store]
package main

import (
	"fmt"
	"os"

	"github.com/holmes-colocation/holmes/internal/experiments"
	"github.com/holmes-colocation/holmes/internal/scenario"
)

func main() {
	store := "redis"
	if len(os.Args) > 1 {
		store = os.Args[1]
	}
	const duration = 6_000_000_000

	fmt.Printf("sweeping threshold E for %s under workload-a...\n\n", store)

	aloneCfg := experiments.DefaultColocation(store, "a", experiments.Alone)
	aloneCfg.DurationNs = duration
	alone, err := experiments.RunColocation(aloneCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	aSum := alone.Latency.Summarize()

	fmt.Printf("%-6s %-12s %-12s %-12s %-12s %-10s\n",
		"E", "avg/alone", "p90/alone", "p99/alone", "CPU util", "evictions")
	for e := 40.0; e <= 80; e += 10 {
		cfg := experiments.DefaultColocation(store, "a", experiments.Holmes)
		cfg.DurationNs = duration
		cfg.Holmes = &scenario.HolmesSpec{E: e}
		r, err := experiments.RunColocation(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		s := r.Latency.Summarize()
		fmt.Printf("%-6.0f %-12.3f %-12.3f %-12.3f %-12s %-10d\n",
			e, s.Mean/aSum.Mean, s.P90/aSum.P90, s.P99/aSum.P99,
			fmt.Sprintf("%.1f%%", 100*r.AvgCPUUtil), r.Deallocations)
	}
	fmt.Println("\nLower E keeps latency near Alone (ratio ~1.0) at a small utilization")
	fmt.Println("cost; higher E admits interference before reacting. The paper adopts E=40.")
}
