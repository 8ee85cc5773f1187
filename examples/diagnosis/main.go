// Diagnosis: reproduce the paper's metric-selection study (§3.1). The
// measurement program issues fixed-size DRAM requests at increasing rates
// from one thread and then from two sibling hardware threads, recording
// the per-request latency and the VPI of all four candidate hardware
// performance events. Pearson correlation then picks the event that best
// tracks memory access latency — STALLS_MEM_ANY (0x14A3), as in Table 1.
//
//	go run ./examples/diagnosis
package main

import (
	"fmt"

	"github.com/holmes-colocation/holmes/internal/experiments"
	"github.com/holmes-colocation/holmes/internal/hpe"
)

func main() {
	fmt.Println("running the §3.1 measurement sweep (single thread, then sibling pairs)...")
	r := experiments.RunSweep(experiments.Options{Seed: 1, Scale: 2}) // 300 ms per point

	fmt.Println()
	fmt.Println(r.RenderTable1())

	fmt.Println("How the saturated thread degrades as its sibling ramps up:")
	fmt.Printf("%-14s %-12s %-12s %-14s\n", "sibling RPS", "achieved", "latency us", "VPI(0x14a3)")
	for _, pt := range r.Sweep.MaxThread {
		fmt.Printf("%-14.0f %-12.0f %-12.1f %-14.1f\n",
			pt.TargetRPS, pt.AchievedRPS, pt.MeanLatNs/1e3, pt.VPI[hpe.StallsMemAny])
	}
	fmt.Println("\nThe peak rate collapses from ~74k to ~45k RPS while latency and the")
	fmt.Println("selected VPI rise in lockstep — the signature Holmes's scheduler keys on.")
}
