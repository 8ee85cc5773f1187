// Kubernetes: the paper's §8 future work, running. A kubelet-style node
// agent (internal/kubelite) materializes pods in the Kubernetes cgroup
// layout; Guaranteed pods are registered with Holmes as latency-critical
// automatically, and BestEffort pods are discovered through the
// best-effort cgroup subtree — no administrator-supplied PIDs anywhere.
//
//	go run ./examples/kubernetes
package main

import (
	"fmt"
	"os"

	"github.com/holmes-colocation/holmes/internal/batch"
	"github.com/holmes-colocation/holmes/internal/cgroupfs"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/kubelite"
	"github.com/holmes-colocation/holmes/internal/lcservice"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/ycsb"
)

func main() {
	m := machine.New(machine.DefaultConfig())
	k := kernel.New(m)
	fs := cgroupfs.NewFS()

	kl, err := kubelite.Start(k, fs, kubelite.DefaultConfig())
	if err != nil {
		fail(err)
	}

	// A Guaranteed pod: the Redis cache, admitted through the kubelet.
	store, gen, err := lcservice.Preload{
		Store: "redis", StoreSeed: 1, Workload: ycsb.WorkloadA, Records: 30_000, GenSeed: 1,
	}.Load()
	if err != nil {
		fail(err)
	}
	svc := lcservice.Launch(k, store, lcservice.DefaultConfigFor("redis"))
	if _, err := kl.RunServicePod("redis-cache", svc.Process()); err != nil {
		fail(err)
	}
	fmt.Println("admitted Guaranteed pod redis-cache ->", "/kubepods/guaranteed/pod-redis-cache")
	fmt.Println("  (kubelet registered its PID with Holmes; threads pinned to",
		kl.Holmes().ReservedCPUs().CPUs(), ")")

	// BestEffort pods: the analytics fleet.
	for i, kind := range []batch.Kind{batch.KMeans, batch.Sort, batch.PageRank} {
		name := fmt.Sprintf("analytics-%d", i)
		if _, err := kl.RunPod(kubelite.PodSpec{
			Name: name, QoS: kubelite.BestEffort,
			Containers: 3, ThreadsPerContainer: 3,
			Kind: kind, MemoryBytes: 2 << 30,
		}); err != nil {
			fail(err)
		}
		fmt.Printf("admitted BestEffort pod %s (%s)\n", name, kind)
	}

	// Traffic.
	tr := ycsb.NewTraffic(3e9, 5e9, 5e8, 1e9, 10_000, 1)
	client := lcservice.NewClient(svc, gen, tr)
	client.Start()

	fmt.Println("\nsimulating 10 seconds of co-located operation...")
	m.RunFor(2_000_000_000)
	svc.ResetLatencies()
	m.RunFor(10_000_000_000)
	client.Stop()

	sum := svc.Latencies().Summarize()
	_, dealloc, realloc, expand := kl.Holmes().Stats()
	var busy float64
	n := m.Topology().LogicalCPUs()
	for p := 0; p < n; p++ {
		busy += m.BusyCycles(p)
	}
	util := busy / (m.Config().FreqGHz * 12e9 * float64(n))

	fmt.Printf("\nredis-cache latency: mean=%.1fus p90=%.1fus p99=%.1fus over %d queries\n",
		sum.Mean/1e3, sum.P90/1e3, sum.P99/1e3, sum.Count)
	fmt.Printf("node utilization:    %.1f%% (whole 12 s window)\n", 100*util)
	fmt.Printf("holmes actions:      %d evictions, %d restorations, %d expansions\n",
		dealloc, realloc, expand)

	// Scale the analytics fleet down; Holmes sees the cgroups disappear.
	if err := kl.DeletePod("analytics-0"); err != nil {
		fail(err)
	}
	fmt.Println("\ndeleted analytics-0; remaining pods:", kl.Pods())
	fmt.Println("\nThe cluster manager owns pod lifecycles end to end — the §8 goal —")
	fmt.Println("while Holmes keeps the Guaranteed tenant's tail latency intact.")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
