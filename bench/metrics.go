package main

import "sort"

// class says what a metric measures and how -compare judges it.
type class int

const (
	// hostCost is host time or memory a user of the reproduction pays. The
	// end-to-end ones are judged against their bound.
	hostCost class = iota
	// simulated is an outcome or count of the simulated system. The
	// simulator is deterministic, so for one seed it repeats exactly and
	// a performance-only change must leave it identical.
	simulated
	// profile is a share of host CPU samples from the traced rep.
	profile
)

// metricDef describes one metric. decl says where BENCHMARK.json declares
// it: "end_to_end", "per_layer", or "" for a metric that only some
// workloads have, which the harness prints and writes to results.json but
// does not declare (every declared metric is reported by every workload).
type metricDef struct {
	name   string
	unit   string
	higher bool
	bound  float64 // worst relative change -compare accepts; simulated metrics use 0
	class  class
	decl   string
}

const (
	e2e   = "end_to_end"
	layer = "per_layer"
)

// hostTimeBound is the bound on every host-time metric. On a shared
// 2-vCPU host, reps of one seed swing by up to 2x as neighbours contend
// for caches and memory bandwidth, so a tighter bound would flag noise as
// regressions (README.md, "Noise").
const hostTimeBound = 0.25

// metricDefs is the harness's metric table; BENCHMARK.json must agree
// with it (quick_test.go checks).
var metricDefs = []metricDef{
	{"wall_s", "s", false, hostTimeBound, hostCost, e2e},
	{"cpu_s", "s", false, hostTimeBound, hostCost, e2e},
	{"setup_s", "s", false, hostTimeBound, hostCost, e2e},
	{"peak_rss_mb", "MB", false, 0.10, hostCost, e2e},

	{"lc_p99_us", "sim-us", false, 0, simulated, layer},
	{"slo_violation_pct", "%", false, 0, simulated, layer},
	{"cpu_util_pct", "%", true, 0, simulated, layer},
	{"batch_jobs_done", "count", true, 0, simulated, layer},
	{"queries_done", "count", true, 0, simulated, layer},
	{"goodput_rps", "req/sim-s", true, 0, simulated, layer},
	{"core.daemon_ticks", "count", true, 0, simulated, layer},
	{"core.decisions", "count", true, 0, simulated, layer},
	{"cluster.evictions", "count", false, 0, simulated, layer},
	{"cluster.requeues", "count", false, 0, simulated, layer},
	{"cluster.failed_placements", "count", false, 0, simulated, layer},
	{"cluster.lod_skip_frac", "ratio", true, 0, simulated, layer},
	{"traffic.amplification", "ratio", false, 0, simulated, layer},
	{"traffic.retries", "count", false, 0, simulated, layer},
	{"traffic.shed", "count", false, 0, simulated, layer},
	{"traffic.expired", "count", false, 0, simulated, layer},
	{"traffic.goodput_ratio", "ratio", true, 0, simulated, layer},
	{"machine.chunks", "count", true, 0, simulated, layer},
	{"machine.batched_tick_frac", "ratio", true, 0, simulated, layer},

	{"node_sim_s_per_s", "sim-s/s", true, hostTimeBound, hostCost, layer},
	{"runtime.alloc_mb", "MB", false, 0.10, hostCost, layer},
	{"runtime.allocs_per_sim_ms", "allocs/sim-ms", false, 0.10, hostCost, layer},
	{"runtime.gc_cycles", "count", false, 0.10, hostCost, layer},
	{"runtime.gc_pause_ms", "ms", false, hostTimeBound, hostCost, layer},
	{"trace_overhead_pct", "%", false, 0, hostCost, layer},
	{"setup.process_start_s", "s", false, hostTimeBound, hostCost, layer},

	{"setup.preload_s", "s", false, hostTimeBound, hostCost, ""},
	{"setup.daemon_start_s", "s", false, hostTimeBound, hostCost, ""},
	// The chunk-time tail is the highest of these with ten samples beyond it.
	{"machine.chunk_ms_p50", "ms", false, hostTimeBound, hostCost, ""},
	{"machine.chunk_ms_p90", "ms", false, hostTimeBound, hostCost, ""},
	{"machine.chunk_ms_p99", "ms", false, hostTimeBound, hostCost, ""},
	{"machine.chunk_ms_p99.9", "ms", false, hostTimeBound, hostCost, ""},
	{"cluster.steady_s_per_round", "s", false, hostTimeBound, hostCost, ""},
}

// cpuPackages are the repository packages whose self time the traced rep
// reports; "hpe_perf" folds the counter model and its perf_event front end.
var cpuPackages = []string{"machine", "kernel", "core", "hpe_perf", "kvstore", "ycsb", "rng",
	"lcservice", "cluster", "traffic", "experiments", "runtime_gc", "runtime_alloc", "other"}

// cumFuncs are the entry points whose cumulative share the traced rep
// reports, keyed by metric suffix.
var cumFuncs = []struct{ key, fn string }{
	{"machine.Machine.RunUntil", "machine.(*Machine).RunUntil"},
	{"core.Daemon.tick", "core.(*Daemon).tick"},
	{"core.Monitor.Sample", "core.(*Monitor).Sample"},
	{"lcservice.Service.Load", "lcservice.(*Service).Load"},
	{"ycsb.Generator.Value", "ycsb.(*Generator).Value"},
	{"cluster.Node.PlaceService", "cluster.(*Node).PlaceService"},
	{"cluster.trafficController.place", "cluster.(*trafficController).place"},
}

// paperIDs are the registry experiments the paper-figs workload renders.
var paperIDs = []string{"fig3", "fig5", "table4", "overhead"}

func init() {
	for _, p := range cpuPackages {
		metricDefs = append(metricDefs, metricDef{"cpu." + p, "%", false, 0, profile, layer})
	}
	for _, c := range cumFuncs {
		metricDefs = append(metricDefs, metricDef{"cum." + c.key, "%", false, 0, profile, layer})
	}
	for _, id := range paperIDs {
		metricDefs = append(metricDefs, metricDef{"experiments." + id + "_s", "s", false, hostTimeBound, hostCost, ""})
	}
}

// lookup returns the definition of name; ok is false for an unknown name.
func lookup(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// declared returns the names BENCHMARK.json lists under decl, in table order.
func declared(decl string) []string {
	var out []string
	for _, d := range metricDefs {
		if d.decl == decl {
			out = append(out, d.name)
		}
	}
	return out
}

// sortedKeys returns m's keys in table order, unknown names last and sorted.
func sortedKeys[V any](m map[string]V) []string {
	pos := map[string]int{}
	for i, d := range metricDefs {
		pos[d.name] = i
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		pi, iok := pos[keys[i]]
		pj, jok := pos[keys[j]]
		if iok != jok {
			return iok
		}
		if iok && pi != pj {
			return pi < pj
		}
		return keys[i] < keys[j]
	})
	return keys
}
