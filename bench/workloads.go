package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/holmes-colocation/holmes/internal/batch"
	"github.com/holmes-colocation/holmes/internal/cgroupfs"
	"github.com/holmes-colocation/holmes/internal/cluster"
	"github.com/holmes-colocation/holmes/internal/core"
	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/experiments"
	"github.com/holmes-colocation/holmes/internal/faults"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/kvstore/redis"
	"github.com/holmes-colocation/holmes/internal/lcservice"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/scenario"
	"github.com/holmes-colocation/holmes/internal/yarn"
	"github.com/holmes-colocation/holmes/internal/ycsb"
)

// A workload runs one rep inside a child process, recording its metrics,
// simulated output and checks into its repState. Every workload records
// setup_s and opens the measured window (repState.clock) itself. README.md
// says why each workload exists.
type workload struct {
	name string
	run  func(s *repState) error
}

var workloads = []workload{
	{"node-colocation", runNode},
	{"fleet-256", runFleet},
	{"traffic-storm", runStorm},
	{"paper-figs", runPaperFigs},
}

// repState is one rep's state.
type repState struct {
	seed     uint64
	scale    float64 // multiplies every simulated window: 1, or 0.1 under -quick
	tr       tracer
	metrics  map[string]float64
	out      hash.Hash // digest of the simulated output
	failures []string

	// The measured window, opened by clock: wall_s, cpu_s and the
	// runtime.* metrics cover it. simMs is the simulated node-milliseconds
	// inside it (0 when the workload cannot see them).
	t0    time.Time
	cpu0  float64
	mem0  runtime.MemStats
	simMs float64
}

func newRepState(seed uint64, scale float64, traced bool) *repState {
	return &repState{
		seed:    seed,
		scale:   scale,
		tr:      tracer{on: traced, t0: time.Now()},
		metrics: map[string]float64{},
		out:     sha256.New(),
	}
}

// window scales a simulated window, with the registry's 100 ms floor.
func (s *repState) window(ns float64) int64 {
	return max(int64(ns*s.scale), 100_000_000)
}

// call times fn, one harness call into a layer, and returns its seconds.
func (s *repState) call(name string, fn func()) float64 {
	end := s.tr.begin(name)
	fn()
	return end()
}

func (s *repState) check(ok bool, format string, args ...any) {
	if !ok {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

func (s *repState) clock() {
	runtime.ReadMemStats(&s.mem0)
	s.cpu0, _ = rusage()
	s.t0 = time.Now()
}

// finish closes the measured window.
func (s *repState) finish() {
	wall := time.Since(s.t0).Seconds()
	cpu, rssMB := rusage()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	s.metrics["wall_s"] = wall
	s.metrics["cpu_s"] = cpu - s.cpu0
	s.metrics["peak_rss_mb"] = rssMB
	s.metrics["runtime.alloc_mb"] = float64(mem.TotalAlloc-s.mem0.TotalAlloc) / 1e6
	s.metrics["runtime.gc_cycles"] = float64(mem.NumGC - s.mem0.NumGC)
	s.metrics["runtime.gc_pause_ms"] = float64(mem.PauseTotalNs-s.mem0.PauseTotalNs) / 1e6
	if s.simMs > 0 {
		s.metrics["runtime.allocs_per_sim_ms"] = float64(mem.Mallocs-s.mem0.Mallocs) / s.simMs
	}
}

// rusage returns the process's user+system CPU seconds and its peak RSS.
func rusage() (cpuS, peakMB float64) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// The node-colocation operating point is experiments.RunColocation's
// Holmes setting for Redis under YCSB-A.
const (
	nodeRecords = 50_000 // 1 KB records: twice the modelled 24 MB LLC
	nodeRPS     = 10_000 // the registry's calibrated burst rate for redis, workload a
	nodeSNs     = 500_000_000
	chunkNs     = 10_000_000
	sloNs       = 200_000
)

func runNode(s *repState) error {
	out, err := nodeColocation(s, s.window(1e9), s.window(8e9))
	if err != nil {
		return err
	}
	s.check(out.queries > 0, "node-colocation completed no queries")
	return nil
}

// nodeOutcome is what equiv_test.go compares with RunColocation.
type nodeOutcome struct {
	p99Ns   float64
	queries int64
	jobs    int
}

// nodeBatchJob is the registry's compressed HiBench rotation.
func nodeBatchJob(i int) batch.Spec {
	kinds := []batch.Kind{batch.KMeans, batch.Sort, batch.WordCount, batch.PageRank}
	return batch.Spec{Kind: kinds[i%len(kinds)], Containers: 4, ThreadsPerContainer: 2,
		WorkUnitsPerThread: 1200, MemoryBytes: 4 << 30}
}

// nodeColocation composes one Holmes node from the layers' public calls,
// in RunColocation's order, and advances it in 10 ms chunks: warm-up,
// then the measured window. Its set-up is everything before the first
// chunk.
func nodeColocation(s *repState, warmupNs, measureNs int64) (nodeOutcome, error) {
	s.clock()
	endSetup := s.tr.begin("setup")
	mcfg := machine.DefaultConfig()
	mcfg.Seed = s.seed
	n := mcfg.Topology.LogicalCPUs()
	var m *machine.Machine
	var k *kernel.Kernel
	var fs *cgroupfs.FS
	var svc *lcservice.Service
	var gen *ycsb.Generator
	s.call("machine.New", func() { m = machine.New(mcfg) })
	s.call("kernel.New", func() { k = kernel.New(m) })
	s.call("cgroupfs.NewFS", func() { fs = cgroupfs.NewFS() })
	s.call("lcservice.Launch", func() {
		rcfg := redis.DefaultConfig()
		rcfg.Seed = s.seed
		svc = lcservice.Launch(k, redis.New(rcfg), lcservice.DefaultConfigFor("redis"))
	})
	s.call("ycsb.NewGenerator", func() {
		gcfg := ycsb.DefaultConfig(ycsb.WorkloadA)
		gcfg.RecordCount = nodeRecords
		gcfg.Seed = s.seed + 17
		gen = ycsb.NewGenerator(gcfg)
	})
	s.metrics["setup.preload_s"] = s.call("lcservice.Service.Load", func() { svc.Load(gen) })

	var d *core.Daemon
	var err error
	s.metrics["setup.daemon_start_s"] = s.call("core.Start", func() {
		hc := core.DefaultConfig()
		hc.SNs = nodeSNs
		hc.DaemonCPU = n - 1
		d, err = core.Start(k, fs, hc)
	})
	if err != nil {
		return nodeOutcome{}, err
	}
	s.metrics["setup.daemon_start_s"] += s.call("core.Daemon.RegisterLC", func() { err = d.RegisterLC(svc.PID()) })
	if err != nil {
		return nodeOutcome{}, err
	}

	var nm *yarn.NodeManager
	s.call("yarn.NewNodeManager", func() {
		nm = yarn.NewNodeManager(k, fs, cpuid.FullMask(n).Subtract(cpuid.MaskOf(0, 1, 2, 3)))
	})
	jobIdx := 0
	nm.Refill = func() *batch.Spec {
		spec := nodeBatchJob(jobIdx)
		jobIdx++
		return &spec
	}
	for ; jobIdx < 6 && err == nil; jobIdx++ {
		s.call("yarn.NodeManager.Submit", func() { err = nm.Submit(nodeBatchJob(jobIdx)) })
	}
	if err != nil {
		return nodeOutcome{}, err
	}
	var client *lcservice.Client
	s.call("lcservice.NewClient", func() {
		client = lcservice.NewClient(svc, gen, ycsb.NewTraffic(6e9, 9e9, 5e8, 1e9, nodeRPS, s.seed+29))
	})
	s.call("lcservice.Client.Start", client.Start)
	s.metrics["setup_s"] = endSetup()

	busy := func(cpus []int) (sum float64) {
		for _, p := range cpus {
			sum += m.BusyCycles(p)
		}
		return sum
	}
	all := cpuid.FullMask(n).CPUs()
	endSteady := s.tr.begin("steady")
	s.advance(m, warmupNs, nil)
	// collect spans group the cheap getters that read results.
	end := s.tr.begin("collect")
	svc.ResetLatencies()
	busyBase, jobsBase, queriesBase := busy(all), nm.CompletedCount(), svc.Completed()
	end()
	var chunks []float64
	s.advance(m, measureNs, &chunks)
	steady := endSteady()

	end = s.tr.begin("collect")
	lat := svc.Latencies()
	sum := lat.Summarize()
	out := nodeOutcome{p99Ns: sum.P99, queries: svc.Completed() - queriesBase, jobs: nm.CompletedCount() - jobsBase}
	util := (busy(all) - busyBase) / (mcfg.FreqGHz * float64(measureNs) * float64(n))
	inv, dealloc, realloc, expand := d.Stats()
	d.Stop()
	client.Stop()
	end()

	simNs := float64(warmupNs + measureNs)
	s.simMs = simNs / 1e6
	s.metrics["node_sim_s_per_s"] = simNs / 1e9 / steady
	s.metrics["lc_p99_us"] = sum.P99 / 1e3
	s.metrics["slo_violation_pct"] = 100 * lat.FractionAbove(sloNs)
	s.metrics["cpu_util_pct"] = 100 * util
	s.metrics["batch_jobs_done"] = float64(out.jobs)
	s.metrics["queries_done"] = float64(out.queries)
	s.metrics["core.daemon_ticks"] = float64(inv)
	s.metrics["core.decisions"] = float64(dealloc + realloc + expand)
	s.metrics["machine.chunks"] = float64(len(chunks))
	s.metrics["machine.batched_tick_frac"] = float64(m.BatchedTicks()) / (simNs / float64(mcfg.TickNs))
	s.metrics["machine.chunk_ms_p50"] = percentile(chunks, 50)
	if p := tailPercentile(len(chunks)); p > 50 {
		s.metrics[fmt.Sprintf("machine.chunk_ms_p%g", p)] = percentile(chunks, p)
	}
	fmt.Fprintf(s.out, "latency %+v\nqueries %d jobs %d util %.9g daemon %d/%d/%d/%d\n",
		sum, out.queries, out.jobs, util, inv, dealloc, realloc, expand)
	return out, nil
}

// advance runs m for ns in 10 ms chunks, appending each chunk's host time
// in milliseconds to times when it is non-nil.
func (s *repState) advance(m *machine.Machine, ns int64, times *[]float64) {
	for done := int64(0); done < ns; done += chunkNs {
		end := s.tr.begin("machine.RunFor")
		m.RunFor(min(chunkNs, ns-done))
		ms := end() * 1e3
		if times != nil {
			*times = append(*times, ms)
		}
	}
}

// fleetSpec is the scale experiment's 256-node score arm.
func fleetSpec(s *repState) cluster.Spec {
	spec := cluster.DefaultSpec()
	spec.Name = "scale"
	spec.Nodes = 256
	spec.Placer = cluster.PlacerScore
	spec.LoD = cluster.LoDAuto
	spec.WarmupSeconds = float64(s.window(0.5e9)) / 1e9
	spec.DurationSeconds = float64(s.window(2e9)) / 1e9
	stores := []struct {
		store string
		rps   float64
	}{{"redis", 10_000}, {"rocksdb", 40_000}, {"memcached", 40_000}, {"wiredtiger", 40_000}}
	spec.Services = nil
	for i := 0; i < 8; i++ {
		st := stores[i%len(stores)]
		spec.Services = append(spec.Services, cluster.ServiceSpec{
			Name: fmt.Sprintf("%s-%d", st.store, i/len(stores)), Store: st.store, Workload: "a", RPS: st.rps})
	}
	spec.Batch = cluster.BatchStream{Pods: 160, PodsPerRound: 8, Containers: 2,
		ThreadsPerContainer: 2, WorkUnitsPerThread: 600}
	spec.Seed = s.seed
	return spec
}

func runFleet(s *repState) error {
	res, err := runCluster(s, fleetSpec(s))
	if err != nil {
		return err
	}
	s.check(res.BatchArrived == res.BatchDoneTotal+res.BatchRunning+res.BatchQueued+res.BatchFailed,
		"fleet-256 pod stream not conserved: %d arrived != %d done + %d running + %d queued + %d failed",
		res.BatchArrived, res.BatchDoneTotal, res.BatchRunning, res.BatchQueued, res.BatchFailed)
	s.metrics["lc_p99_us"] = res.MeanP99 / 1e3
	s.metrics["slo_violation_pct"] = 100 * res.SLOViolationRatio
	s.metrics["batch_jobs_done"] = float64(res.BatchCompleted)
	s.metrics["queries_done"] = float64(res.TotalQueries())
	return nil
}

// stormSpec is the storm experiment's resilient arm: a flash crowd
// colliding with a node-0 crash at the spike's onset.
func stormSpec(s *repState) cluster.Spec {
	spec := cluster.DefaultSpec()
	spec.Name = "storm: budgeted retries + breaker + shedding"
	spec.Nodes = 5
	spec.Services = nil
	spec.Batch = cluster.BatchStream{}
	spec.WarmupSeconds = float64(s.window(1e9)) / 1e9
	spec.DurationSeconds = float64(s.window(6e9)) / 1e9
	spec.Seed = s.seed
	topo := scenario.StormTopology(2_000_000, spec.WarmupSeconds+spec.DurationSeconds, scenario.StormResilience())
	hb := float64(spec.HeartbeatMs) / 1000
	spike := topo.Programs[0].Spikes[0]
	crash := int((spike.StartSeconds + 0.05*spike.DurationSeconds) / hb)
	down := max(4, int(0.4*spike.DurationSeconds/hb))
	var chaos faults.Spec
	chaos.Nodes.Crashes = []faults.NodeCrash{{Node: 0, Round: crash, DownRounds: down}}
	spec.Topology = &topo
	spec.Chaos = &chaos
	return spec
}

func runStorm(s *repState) error {
	res, err := runCluster(s, stormSpec(s))
	if err != nil {
		return err
	}
	t := res.Traffic
	s.check(t.Conserved, "traffic-storm request accounting not conserved")
	var queries int64
	for _, svc := range t.Services {
		queries += svc.Queries
	}
	front := t.Services[0]
	s.metrics["lc_p99_us"] = front.Summary.P99 / 1e3
	s.metrics["slo_violation_pct"] = 100 * front.SLOViolations
	s.metrics["queries_done"] = float64(queries)
	s.metrics["goodput_rps"] = float64(t.Completions) / (float64(res.Rounds) * float64(res.Spec.HeartbeatMs) / 1000)
	s.metrics["traffic.amplification"] = t.Amplification()
	s.metrics["traffic.retries"] = float64(t.Retries)
	s.metrics["traffic.shed"] = float64(t.Shed)
	s.metrics["traffic.expired"] = float64(t.Expired)
	s.metrics["traffic.goodput_ratio"] = float64(t.Completions) / float64(t.Arrivals)
	return nil
}

// runCluster measures set-up as the same spec cut to no warm-up and two
// rounds (node boot, service placement and store preload), then runs the
// full spec as the measured window.
func runCluster(s *repState, spec cluster.Spec) (*cluster.Result, error) {
	opt := cluster.RunOptions{Workers: 1}
	hb := float64(spec.HeartbeatMs) / 1000
	cut := spec
	cut.WarmupSeconds = 0
	cut.DurationSeconds = 2 * hb
	var res *cluster.Result
	var err error
	boot := s.call("setup", func() {
		s.call("cluster.Run", func() { _, err = cluster.Run(cut, opt) })
	})
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", spec.Name, err)
	}
	s.metrics["setup_s"] = boot
	runtime.GC() // the measured window starts from a clean heap

	s.clock()
	run := s.call("cluster.Run", func() { res, err = cluster.Run(spec, opt) })
	if err != nil {
		return nil, err
	}
	nodeRounds := float64(spec.Nodes * res.Rounds)
	s.simMs = nodeRounds * hb * 1e3
	s.metrics["node_sim_s_per_s"] = nodeRounds * hb / (run - boot)
	s.metrics["cluster.steady_s_per_round"] = (run - boot) / float64(res.Rounds-2)
	s.metrics["cpu_util_pct"] = 100 * res.ClusterUtil
	s.metrics["cluster.lod_skip_frac"] = float64(res.LoDSkips) / nodeRounds
	s.metrics["cluster.evictions"] = float64(res.Evictions)
	s.metrics["cluster.requeues"] = float64(res.Requeues)
	s.metrics["cluster.failed_placements"] = float64(res.FailedPlacements)
	fmt.Fprint(s.out, res.Render())
	return res, nil
}

// runPaperFigs regenerates four registry experiments through RunIDs at
// half the quick profile's windows, one call per id so that every rep
// times each figure. Every set-up step of these experiments happens
// inside RunIDs, and even at the registry's smallest windows they cost
// most of a full run, so the workload's set-up is the process start-up
// before the first call: runtime and package initialization.
func runPaperFigs(s *repState) error {
	s.metrics["setup_s"] = s.metrics["setup.process_start_s"]
	o := experiments.Options{Seed: s.seed, Scale: 0.5 * s.scale, Parallel: 2}
	ids := paperIDs
	if s.scale < 1 {
		// fig5 is sixteen 50k-record store preloads whatever the window,
		// too slow for the smoke mode.
		ids = []string{"fig3", "table4", "overhead"}
	}
	s.clock()
	for _, id := range ids {
		var outs []string
		var err error
		s.metrics["experiments."+id+"_s"] = s.call("experiments.RunIDs", func() {
			outs, err = experiments.RunIDs(o, []string{id})
		})
		if err != nil {
			return err
		}
		s.check(strings.TrimSpace(outs[0]) != "", "paper-figs %s rendered nothing", id)
		fmt.Fprintf(s.out, "==== %s\n%s", id, outs[0])
	}
	return nil
}
