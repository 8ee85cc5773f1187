package experiments

import (
	"fmt"
	"strings"

	"github.com/holmes-colocation/holmes/internal/batch"
	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/lcservice"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/stats"
	"github.com/holmes-colocation/holmes/internal/trace"
	"github.com/holmes-colocation/holmes/internal/workload"
	"github.com/holmes-colocation/holmes/internal/ycsb"
)

// Fig3Setting is one of the three §2.2 placements for the Redis
// motivation experiment.
type Fig3Setting string

// The Fig. 3 settings.
const (
	Fig3Alone      Fig3Setting = "alone"       // Redis alone, HT enabled
	Fig3CoSeparate Fig3Setting = "co-separate" // batch on separate physical cores
	Fig3CoHyper    Fig3Setting = "co-hyper"    // batch may use Redis's siblings
)

// Fig3Settings lists the settings in paper order.
func Fig3Settings() []Fig3Setting {
	return []Fig3Setting{Fig3Alone, Fig3CoSeparate, Fig3CoHyper}
}

// Fig3Result holds the Redis latency distributions under the three
// placements.
type Fig3Result struct {
	Settings map[Fig3Setting]stats.Summary
	CDFs     map[Fig3Setting][]stats.CDFPoint
}

// RunFig3 reproduces the motivation experiment: Redis under YCSB
// workload-a with a Spark-KMeans batch job placed per setting, measured
// for four times the profile's micro window.
func RunFig3(o Options) (Fig3Result, error) {
	out := Fig3Result{
		Settings: map[Fig3Setting]stats.Summary{},
		CDFs:     map[Fig3Setting][]stats.CDFPoint{},
	}
	for _, setting := range Fig3Settings() {
		n, err := newServedNode("redis", o.Seed)
		if err != nil {
			return out, err
		}
		// Batch placement per setting. The job is a KMeans-like kernel
		// with as many threads as it has CPUs.
		if setting != Fig3Alone {
			topo := n.m.Topology()
			mask := cpuid.FullMask(topo.LogicalCPUs()).Subtract(servedCPUs)
			if setting == Fig3CoSeparate {
				for _, lc := range servedCPUs.CPUs() {
					mask.Clear(topo.SiblingOf(lc))
				}
			}
			bp := n.k.Spawn("kmeans", mask.Count())
			if err := bp.SetAffinity(mask); err != nil {
				return out, err
			}
			unit := batch.KMeans.UnitCost()
			for _, th := range bp.Threads() {
				startChain(th, unit)
			}
		}
		lat := n.measure(o.microDuration()*4, nil)
		out.Settings[setting] = lat.Summarize()
		out.CDFs[setting] = lat.CDF(20)
	}
	return out, nil
}

// newKernel boots a default machine at seed, with its tick set to tickNs
// unless that is 0, and the kernel on it: the bare node every experiment
// outside the co-location scenario builds on.
func newKernel(seed uint64, tickNs int64) (*machine.Machine, *kernel.Kernel) {
	mcfg := machine.DefaultConfig()
	mcfg.Seed = seed
	if tickNs > 0 {
		mcfg.TickNs = tickNs
	}
	m := machine.New(mcfg)
	return m, kernel.New(m)
}

// servedCPUs are the four logical CPUs a served node pins its store to.
var servedCPUs = cpuid.MaskOf(0, 1, 2, 3)

// servedNode is the node of the §2.2 and §3.2 studies: one store
// preloaded with 50k workload-a records and pinned to servedCPUs, with a
// client ready to send it constant workload-a traffic at the store's
// standard rate. The caller places its sibling load before measure
// starts the client.
type servedNode struct {
	m      *machine.Machine
	k      *kernel.Kernel
	svc    *lcservice.Service
	client *lcservice.Client
}

func newServedNode(store string, seed uint64) (*servedNode, error) {
	m, k := newKernel(seed, 0)
	st, gen, err := lcservice.Preload{
		Store: store, StoreSeed: seed, Workload: ycsb.WorkloadA, Records: 50_000, GenSeed: seed + 17,
	}.Load()
	if err != nil {
		return nil, err
	}
	svc := lcservice.Launch(k, st, lcservice.DefaultConfigFor(store))
	if err := svc.Process().SetAffinity(servedCPUs); err != nil {
		return nil, err
	}
	tr := ycsb.NewTraffic(1e9, 2e9, 1, 2, defaultRPS(store, "a"), seed+29)
	return &servedNode{m: m, k: k, svc: svc, client: lcservice.NewClient(svc, gen, tr)}, nil
}

// measure starts the client, warms up for d/5, resets the latencies,
// calls warmed (when non-nil), then measures for d and returns the
// window's latencies.
func (n *servedNode) measure(d int64, warmed func()) *stats.Histogram {
	n.client.StartServing()
	n.m.RunFor(d / 5)
	n.svc.ResetLatencies()
	if warmed != nil {
		warmed()
	}
	n.m.RunFor(d)
	n.client.Stop()
	return n.svc.Latencies()
}

// startChain keeps a kernel thread busy with identical work items.
func startChain(th *kernel.Thread, c workload.Cost) {
	var push func(int64)
	push = func(int64) {
		th.HW.Push(workload.Item{Cost: c, OnComplete: push})
	}
	push(0)
}

// Render prints the Fig. 3 comparison.
func (r Fig3Result) Render() string {
	tb := trace.NewTable("Fig 3: Redis query latency under three placements (ns)",
		"setting", "mean", "p50", "p90", "p99")
	for _, s := range Fig3Settings() {
		sum := r.Settings[s]
		tb.AddRow(string(s), sum.Mean, sum.P50, sum.P90, sum.P99)
	}
	var b strings.Builder
	b.WriteString(tb.String())
	alone := r.Settings[Fig3Alone]
	hyper := r.Settings[Fig3CoHyper]
	sep := r.Settings[Fig3CoSeparate]
	if alone.Mean > 0 {
		fmt.Fprintf(&b, "\nCo-hyper vs Co-separate: avg %.2fx, p99 %.2fx (paper: 2.0x, 1.3x)\n",
			hyper.Mean/sep.Mean, hyper.P99/sep.P99)
		fmt.Fprintf(&b, "Co-separate vs Alone:    avg %.2fx (paper: ~1.0x)\n", sep.Mean/alone.Mean)
	}
	b.WriteByte('\n')
	plot := trace.NewPlot("CDF of Redis query latency", "latency ns", "fraction of queries")
	plot.LogX = true
	for _, s := range Fig3Settings() {
		plot.AddCDF(string(s), r.CDFs[s])
	}
	b.WriteString(plot.String())
	b.WriteString("\nCDF series (latency_ns fraction):\n")
	for _, s := range Fig3Settings() {
		fmt.Fprintf(&b, "# %s\n", s)
		for _, p := range r.CDFs[s] {
			fmt.Fprintf(&b, "%.0f\t%.3f\n", p.Value, p.Fraction)
		}
	}
	return b.String()
}
