package kubelite

import (
	"testing"

	"github.com/holmes-colocation/holmes/internal/batch"
	"github.com/holmes-colocation/holmes/internal/cgroupfs"
	"github.com/holmes-colocation/holmes/internal/core"
	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/workload"
)

func newNode(t *testing.T) (*machine.Machine, *kernel.Kernel, *cgroupfs.FS, *Kubelet) {
	t.Helper()
	mcfg := machine.DefaultConfig()
	mcfg.Topology = cpuid.Topology{Sockets: 1, Cores: 8}
	m := machine.New(mcfg)
	k := kernel.New(m)
	fs := cgroupfs.NewFS()
	cfg := DefaultConfig()
	cfg.Holmes.ReservedCPUs = 2
	cfg.Holmes.SNs = 5_000_000
	kl, err := Start(k, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, k, fs, kl
}

func chain(th *kernel.Thread, c workload.Cost) {
	var push func(int64)
	push = func(int64) {
		th.HW.Push(workload.Item{Cost: c, OnComplete: push})
	}
	push(0)
}

// lcCost mirrors the core tests' calibrated service mix.
func lcCost() workload.Cost {
	c := workload.MemRead(workload.DRAM, 100)
	c.Add(workload.MemRead(workload.L1, 466))
	c.Add(workload.Compute(2000))
	return c
}

func TestCgroupLayoutCreated(t *testing.T) {
	_, _, fs, kl := newNode(t)
	defer kl.Stop()
	for _, p := range []string{"/kubepods/guaranteed", "/kubepods/burstable", "/kubepods/besteffort"} {
		if fs.Lookup(p) == nil {
			t.Fatalf("missing cgroup %s", p)
		}
	}
}

func TestGuaranteedPodRegistersWithHolmes(t *testing.T) {
	_, k, _, kl := newNode(t)
	defer kl.Stop()
	svc := k.Spawn("redis", 2)
	pod, err := kl.RunServicePod("cache", svc)
	if err != nil {
		t.Fatal(err)
	}
	if pod.Cgroup.Path() != "/kubepods/guaranteed/pod-cache" {
		t.Fatalf("pod cgroup = %s", pod.Cgroup.Path())
	}
	// Registration pins the service to the reserved CPUs (Algorithm 1).
	for _, th := range svc.Threads() {
		if !th.Affinity().Equal(kl.Holmes().ReservedCPUs()) {
			t.Fatalf("service affinity %v != reserved %v",
				th.Affinity(), kl.Holmes().ReservedCPUs().CPUs())
		}
	}
}

func TestBestEffortPodDiscoveredAndManaged(t *testing.T) {
	m, k, _, kl := newNode(t)
	defer kl.Stop()

	// The latency-critical tenant.
	svc := k.Spawn("redis", 2)
	if _, err := kl.RunServicePod("cache", svc); err != nil {
		t.Fatal(err)
	}
	for _, th := range svc.Threads() {
		chain(th, lcCost())
	}

	// A best-effort analytics pod.
	pod, err := kl.RunPod(PodSpec{
		Name: "analytics", QoS: BestEffort, Containers: 2,
		ThreadsPerContainer: 4, Kind: batch.KMeans, MemoryBytes: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The pod starts off the reserved CPUs.
	for _, proc := range pod.Procs {
		for _, th := range proc.Threads() {
			if th.Affinity().Has(0) || th.Affinity().Has(1) {
				t.Fatalf("best-effort pod on reserved CPUs: %v", th.Affinity())
			}
		}
	}
	// Under interference Holmes evicts it from the LC siblings.
	m.RunFor(20_000_000)
	_, dealloc, _, _ := kl.Holmes().Stats()
	if dealloc == 0 {
		t.Fatal("Holmes never evicted the best-effort pod from LC siblings")
	}
}

func TestBurstablePodUnmanaged(t *testing.T) {
	m, _, _, kl := newNode(t)
	defer kl.Stop()
	pod, err := kl.RunPod(PodSpec{
		Name: "web", QoS: Burstable, Containers: 1,
		ThreadsPerContainer: 2, Kind: batch.WordCount,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.RunFor(5_000_000)
	// Burstable pods live outside the best-effort subtree, so Holmes
	// does not track them as batch containers.
	if pod.Cgroup.Path() != "/kubepods/burstable/pod-web" {
		t.Fatalf("cgroup = %s", pod.Cgroup.Path())
	}
	bm := kl.Holmes().BatchMask()
	for _, proc := range pod.Procs {
		for _, th := range proc.Threads() {
			// Its affinity is the launch mask, not Holmes's batch mask
			// (no equality requirement, but it must exclude reserved).
			if th.Affinity().Has(0) {
				t.Fatal("burstable pod on reserved CPU")
			}
		}
	}
	_ = bm
}

func TestFinitePodCompletes(t *testing.T) {
	m, _, _, kl := newNode(t)
	defer kl.Stop()
	pod, err := kl.RunPod(PodSpec{
		Name: "job", QoS: BestEffort, Containers: 1,
		ThreadsPerContainer: 2, Kind: batch.Sort, WorkUnitsPerThread: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.RunFor(2_000_000_000)
	for _, proc := range pod.Procs {
		for _, th := range proc.Threads() {
			if th.HW.State() == machine.Runnable {
				t.Fatal("finite pod still running after its work units")
			}
		}
	}
}

func TestDeletePodCleansUp(t *testing.T) {
	m, _, fs, kl := newNode(t)
	defer kl.Stop()
	_, err := kl.RunPod(PodSpec{
		Name: "doomed", QoS: BestEffort, Containers: 2,
		ThreadsPerContainer: 2, Kind: batch.PageRank,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.RunFor(5_000_000)
	if err := kl.DeletePod("doomed"); err != nil {
		t.Fatal(err)
	}
	if fs.Lookup("/kubepods/besteffort/pod-doomed") != nil {
		t.Fatal("pod cgroup survived deletion")
	}
	if kl.Pods() != 0 || kl.Pod("doomed") != nil {
		t.Fatal("pod still tracked")
	}
	if err := kl.DeletePod("doomed"); err == nil {
		t.Fatal("double delete should fail")
	}
}

func TestPodValidation(t *testing.T) {
	_, k, _, kl := newNode(t)
	defer kl.Stop()
	if _, err := kl.RunPod(PodSpec{Name: "g", QoS: Guaranteed}); err == nil {
		t.Fatal("guaranteed pods need RunServicePod")
	}
	if _, err := kl.RunPod(PodSpec{QoS: BestEffort}); err == nil {
		t.Fatal("unnamed pod accepted")
	}
	if _, err := kl.RunPod(PodSpec{Name: "x", QoS: "platinum"}); err == nil {
		t.Fatal("bogus QoS accepted")
	}
	if _, err := kl.RunServicePod("dead", nil); err == nil {
		t.Fatal("nil process accepted")
	}
	// Duplicate names rejected.
	svc := k.Spawn("svc", 1)
	if _, err := kl.RunServicePod("dup", svc); err != nil {
		t.Fatal(err)
	}
	if _, err := kl.RunServicePod("dup", svc); err == nil {
		t.Fatal("duplicate pod accepted")
	}
}

func TestStartPropagatesDaemonConfigErrors(t *testing.T) {
	mcfg := machine.DefaultConfig()
	mcfg.Topology = cpuid.Topology{Sockets: 1, Cores: 8}
	m := machine.New(mcfg)
	k := kernel.New(m)
	fs := cgroupfs.NewFS()
	cfg := DefaultConfig()
	cfg.Holmes = core.Config{} // invalid
	if _, err := Start(k, fs, cfg); err == nil {
		t.Fatal("invalid Holmes config accepted")
	}
}

// TestDeleteRecreatePod is the reschedule path a cluster reconciler
// relies on: a BestEffort pod deleted mid-run must release its cgroup,
// stop its threads, and leave the name free for an immediate re-create —
// repeatedly, with work-unit progress tracked across each incarnation.
func TestDeleteRecreatePod(t *testing.T) {
	m, _, fs, kl := newNode(t)
	defer kl.Stop()
	spec := PodSpec{
		Name: "migrant", QoS: BestEffort, Containers: 2,
		ThreadsPerContainer: 2, Kind: batch.Sort, WorkUnitsPerThread: 2000,
	}
	for round := 0; round < 3; round++ {
		pod, err := kl.RunPod(spec)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		m.RunFor(20_000_000) // mid-run: some units done, many remain
		done := pod.CompletedWorkUnits()
		if done == 0 {
			t.Fatalf("round %d: no progress before deletion", round)
		}
		total := spec.Containers * spec.ThreadsPerContainer * spec.WorkUnitsPerThread
		if done >= total {
			t.Fatalf("round %d: pod already drained; shrink the run window", round)
		}
		if err := kl.DeletePod("migrant"); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if fs.Lookup("/kubepods/besteffort/pod-migrant") != nil {
			t.Fatalf("round %d: pod cgroup survived deletion", round)
		}
		if kl.Pod("migrant") != nil || kl.Pods() != 0 {
			t.Fatalf("round %d: pod still tracked after deletion", round)
		}
		for _, proc := range pod.Procs {
			if !proc.Exited() {
				t.Fatalf("round %d: container process still alive", round)
			}
			for _, th := range proc.Threads() {
				if th.HW != nil && th.HW.State() == machine.Runnable {
					t.Fatalf("round %d: thread still runnable after deletion", round)
				}
			}
		}
		// The machine must go quiet: no orphaned work keeps burning CPU
		// (the Holmes daemon's own periodic tick is the only activity).
		before := busySum(m)
		m.RunFor(10_000_000)
		if grew := busySum(m) - before; grew > 1e6 {
			t.Fatalf("round %d: %.0f busy cycles after all pods deleted", round, grew)
		}
	}
	// A fresh incarnation still runs to completion.
	spec.WorkUnitsPerThread = 3
	pod, err := kl.RunPod(spec)
	if err != nil {
		t.Fatal(err)
	}
	m.RunFor(1_000_000_000)
	if !pod.Finished() {
		t.Fatal("re-created pod did not finish")
	}
	total := spec.Containers * spec.ThreadsPerContainer * spec.WorkUnitsPerThread
	if pod.CompletedWorkUnits() != total {
		t.Fatalf("completed %d units, want %d", pod.CompletedWorkUnits(), total)
	}
}

func busySum(m *machine.Machine) float64 {
	var sum float64
	for p := 0; p < m.Topology().LogicalCPUs(); p++ {
		sum += m.BusyCycles(p)
	}
	return sum
}

// TestDeleteServicePodFencesInstance is the cluster fencing path: a
// rejoining node's zombie Guaranteed service pod is deleted, its process
// killed and its cgroup removed, and a replacement instance can register
// under the same pod name without tripping duplicate detection.
func TestDeleteServicePodFencesInstance(t *testing.T) {
	m, k, fs, kl := newNode(t)
	defer kl.Stop()
	zombie := k.Spawn("svc-old", 2)
	for _, th := range zombie.Threads() {
		chain(th, lcCost())
	}
	if _, err := kl.RunServicePod("svc", zombie); err != nil {
		t.Fatal(err)
	}
	m.RunFor(5_000_000)
	if err := kl.DeletePod("svc"); err != nil {
		t.Fatal(err)
	}
	if !zombie.Exited() {
		t.Fatal("fenced service process still alive")
	}
	if fs.Lookup("/kubepods/guaranteed/pod-svc") != nil {
		t.Fatal("service pod cgroup survived fencing")
	}
	if kl.Pod("svc") != nil {
		t.Fatal("fenced pod still tracked")
	}
	// The daemon must reap the exited LC so a fresh instance can bind.
	m.RunFor(5_000_000)
	fresh := k.Spawn("svc-new", 2)
	if _, err := kl.RunServicePod("svc", fresh); err != nil {
		t.Fatalf("replacement instance rejected: %v", err)
	}
	for _, th := range fresh.Threads() {
		if !th.Affinity().Equal(kl.Holmes().ReservedCPUs()) {
			t.Fatalf("replacement affinity %v != reserved %v",
				th.Affinity(), kl.Holmes().ReservedCPUs().CPUs())
		}
	}
}
