// Command holmesd runs the Holmes daemon on a live simulated server and
// narrates what it does: a latency-critical service receives bursty YCSB
// traffic while batch jobs stream through Yarn, and Holmes evicts and
// restores their access to the service's hyperthread siblings based on
// the VPI metric.
//
// Usage:
//
//	holmesd [-store redis|memcached|rocksdb|wiredtiger] [-workload a|b|e]
//	        [-duration 20s] [-E 40] [-interval 100us] [-seed 1] [-perfiso]
//	        [-http 127.0.0.1:9140]
//
// With -http, the daemon's telemetry is served live while the scenario
// runs: /metrics (Prometheus text), /spans (the JSON decision log as
// causal spans; ?n= keeps the newest n, ?format=chrome exports Chrome
// trace-event JSON), /timeline (the span log as an indented causal text
// tree) and /debug/holmes (JSON bundle), plus the Go runtime profiles
// under /debug/pprof/ for profiling the simulator itself. The server keeps running after the run so the
// final state can be inspected; interrupt to exit.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"time"

	"github.com/holmes-colocation/holmes/internal/experiments"
	"github.com/holmes-colocation/holmes/internal/scenario"
	"github.com/holmes-colocation/holmes/internal/telemetry"
)

func main() {
	store := flag.String("store", "redis", "latency-critical service")
	wl := flag.String("workload", "a", "YCSB workload (a|b|e)")
	duration := flag.Duration("duration", 20*time.Second, "measured simulated duration")
	e := flag.Float64("E", 40, "VPI deallocation threshold (positive)")
	interval := flag.Duration("interval", 100*time.Microsecond, "monitor/scheduler interval, a positive whole number of microseconds")
	seed := flag.Uint64("seed", 1, "simulation seed")
	perfiso := flag.Bool("perfiso", false, "run the PerfIso baseline instead of Holmes")
	httpAddr := flag.String("http", "", "serve /metrics, /spans and /debug/holmes on this address")
	flag.Parse()

	holmes, err := holmesSpec(*e, *interval)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	setting := experiments.Holmes
	if *perfiso {
		setting = experiments.PerfIso
	}
	cfg := experiments.DefaultColocation(*store, *wl, setting)
	cfg.DurationNs = duration.Nanoseconds()
	cfg.Seed = *seed
	cfg.Holmes = holmes
	cfg.VPISampleNs = 100_000_000

	var set *telemetry.Set
	if *httpAddr != "" {
		set = telemetry.NewSet()
		cfg.Telemetry = set
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		go func() { _ = http.Serve(ln, handler(set)) }()
		fmt.Printf("telemetry: http://%s/metrics /spans /timeline /debug/holmes /debug/pprof/\n", ln.Addr())
	}

	fmt.Printf("holmesd: %s + %s workload-%s for %v of simulated time (seed %d)\n",
		setting, *store, *wl, *duration, *seed)
	res, err := experiments.RunColocation(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	sum := res.Latency.Summarize()
	fmt.Printf("\nquery latency: mean=%.1fus p50=%.1fus p90=%.1fus p99=%.1fus (%d queries)\n",
		sum.Mean/1e3, sum.P50/1e3, sum.P90/1e3, sum.P99/1e3, sum.Count)
	fmt.Printf("machine utilization: %.1f%%  (LC CPUs: %.1f%%)\n",
		100*res.AvgCPUUtil, 100*res.LCUtil)
	fmt.Printf("batch jobs completed: %d\n", res.CompletedJobs)
	if setting == experiments.Holmes {
		fmt.Printf("scheduler actions: %d sibling evictions, %d restorations, %d pool expansions\n",
			res.Deallocations, res.Reallocations, res.Expansions)
		fmt.Printf("daemon overhead: %.2f%% of one core\n", 100*res.DaemonUtil)
	}
	if res.VPISeries.Len() > 0 {
		fmt.Printf("\nVPI on LC CPUs over time (mean %.1f, max %.1f):\n",
			res.VPISeries.Mean(), res.VPISeries.Max())
		fmt.Print(res.VPISeries.Downsample(20).TSV())
	}
	if set != nil {
		fmt.Printf("\ntelemetry: %d decision spans recorded; serving until interrupted\n",
			set.Spans.Total())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
	}
}

// holmesSpec turns -E and -interval into the daemon override, which reads
// zero as the default and counts whole microseconds: values it cannot
// carry are errors, not a silently substituted default.
func holmesSpec(e float64, interval time.Duration) (*scenario.HolmesSpec, error) {
	if !(e > 0) {
		return nil, fmt.Errorf("-E %v must be positive", e)
	}
	if interval <= 0 || interval%time.Microsecond != 0 {
		return nil, fmt.Errorf("-interval %v must be a positive whole number of microseconds", interval)
	}
	return &scenario.HolmesSpec{E: e, IntervalUs: interval.Microseconds()}, nil
}

// handler serves the telemetry endpoints and, beside them, the runtime
// profiles of this process under /debug/pprof/.
func handler(set *telemetry.Set) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", set.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
