// Command holmes-cluster runs the multi-node control plane: a simulated
// fleet of kubelite nodes (each a full machine + kernel + cgroupfs +
// Holmes daemon) coordinated by the VPI-aware placement scheduler and
// reconciler of internal/cluster.
//
// Usage:
//
//	holmes-cluster [flags]                   run the default 6-node cluster
//	holmes-cluster -placer both [flags]      compare VPI-aware vs bin-packing
//	holmes-cluster -spec cluster.json        run a JSON-described cluster
//	holmes-cluster -chaos [flags]            inject the default fault schedule
//	holmes-cluster -chaos-spec faults.json   inject a JSON-described schedule
//	holmes-cluster -traffic 1000000          drive a modeled 1M-user diurnal day
//	holmes-cluster -topology topo.json       drive a JSON-described traffic topology
//	holmes-cluster -storm 2000000            retry-storm scenario: flash crowd + node crash
//	holmes-cluster -nodes 256 -placer score -lod auto
//	                                         datacenter-scale fleet: scoring placement
//	                                         over the sharded registry, quiescent nodes
//	                                         fast-forwarded
//
// Every run is deterministic: per-node seeds derive from (seed, node ID),
// so -parallel N changes wall-clock time, never the output. Fault
// schedules are equally seed-derived, so chaos runs replay exactly. With
// a traffic topology attached, the command exits 1 when the request
// accounting identity does not hold.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/holmes-colocation/holmes/internal/cluster"
	"github.com/holmes-colocation/holmes/internal/faults"
	"github.com/holmes-colocation/holmes/internal/obs"
	"github.com/holmes-colocation/holmes/internal/report"
	"github.com/holmes-colocation/holmes/internal/runner"
	"github.com/holmes-colocation/holmes/internal/scenario"
	"github.com/holmes-colocation/holmes/internal/telemetry"
	"github.com/holmes-colocation/holmes/internal/traffic"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("holmes-cluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "JSON cluster spec (overrides the shape flags)")
	nodes := fs.Int("nodes", 0, "fleet size (default 6)")
	cores := fs.Int("cores", 0, "physical cores per node (default 8)")
	placer := fs.String("placer", "", `placement policy: "vpi", "binpack", "score" or "both" (default vpi)`)
	lod := fs.String("lod", "", `node fidelity: "full" or "auto" (fast-forward quiescent nodes; default full)`)
	duration := fs.Float64("duration", 0, "measured window, simulated seconds (default 3)")
	warmup := fs.Float64("warmup", -1, "warmup before measurement, simulated seconds (default 1)")
	batchPods := fs.Int("batch-pods", -1, "total BestEffort pods submitted (default 48)")
	services := fs.Int("services", 0, "run only the first N services of the spec (0 = all)")
	evictVPI := fs.Float64("evict-vpi", 0, "reconciler eviction threshold (default 25)")
	hotRounds := fs.Int("hot-rounds", 0, "consecutive hot heartbeats before eviction (default 2)")
	seed := fs.Uint64("seed", 0, "simulation seed (default 1)")
	chaos := fs.Bool("chaos", false, "inject the default fault schedule (faults.DefaultSchedule)")
	chaosSpec := fs.String("chaos-spec", "", "JSON fault schedule to inject (overrides -chaos)")
	trafficUsers := fs.Int("traffic", 0, "attach the default open-loop traffic topology modeling N users")
	topoPath := fs.String("topology", "", "JSON traffic topology (replicated services + programs; overrides -traffic)")
	stormUsers := fs.Int("storm", 0, "run the retry-storm scenario modeling N users: storm topology, resilient client stack, scripted node crash at the flash crowd's onset")
	deadlineMs := fs.Float64("deadline-ms", 0, "override every service's per-request deadline, milliseconds")
	retries := fs.Int("retries", 0, "override every service's total attempts per request (1 = no retries)")
	retryBudget := fs.Float64("retry-budget", -1, "override the retry budget as a fraction of recent successes (0 = unlimited)")
	shedLimit := fs.Int("shed-limit", -1, "override the replica-side admission concurrency limit (0 = no shedding)")
	noResilience := fs.Bool("no-resilience", false, "strip the resilience layer from every service (no deadlines, retries, breakers or shedding)")
	noDegrade := fs.Bool("no-degrade", false, "disable graceful degradation (watchdog, re-scan, failure detector)")
	parallel := fs.Int("parallel", runner.DefaultParallelism(),
		"max concurrent node simulations (1 = serial; output identical either way)")
	traceOut := fs.String("trace-out", "", "write the merged span timeline to FILE (.jsonl = one span per line, otherwise Chrome trace-event JSON)")
	flightOut := fs.String("flight-out", "", "write the flight-recorder post-mortem bundle to FILE")
	dashboard := fs.Bool("dashboard", false, "print the fleet observability dashboard after the run")
	fs.Usage = func() { usage(stderr) }
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "holmes-cluster: "+format+"\n", a...)
		return 1
	}
	// Reject nonsense values the "0 means default" convention would
	// otherwise swallow silently.
	if *nodes < 0 {
		return fail("-nodes %d must be positive", *nodes)
	}
	if *cores < 0 {
		return fail("-cores %d must be positive", *cores)
	}
	if *duration < 0 {
		return fail("-duration %g must be positive (simulated seconds)", *duration)
	}
	if *batchPods < -1 {
		return fail("-batch-pods %d must not be negative", *batchPods)
	}
	if *services < 0 {
		return fail("-services %d must not be negative", *services)
	}
	if *evictVPI < 0 {
		return fail("-evict-vpi %g must be positive (VPI threshold, e.g. 25)", *evictVPI)
	}
	if *hotRounds < 0 {
		return fail("-hot-rounds %d must be positive", *hotRounds)
	}
	if *parallel < 1 {
		return fail("-parallel %d must be at least 1", *parallel)
	}
	switch *lod {
	case "", cluster.LoDFull, cluster.LoDAuto:
	default:
		return fail(`-lod %q must be "full" or "auto"`, *lod)
	}
	if *trafficUsers < 0 {
		return fail("-traffic %d must be positive (modeled users)", *trafficUsers)
	}
	if *stormUsers < 0 {
		return fail("-storm %d must be positive (modeled users)", *stormUsers)
	}
	if *deadlineMs < 0 {
		return fail("-deadline-ms %g must be positive (milliseconds)", *deadlineMs)
	}
	if *retries < 0 {
		return fail("-retries %d must be positive (total attempts, first included)", *retries)
	}
	if *retries > traffic.MaxAttempts {
		return fail("-retries %d exceeds the per-attempt accounting cap of %d", *retries, traffic.MaxAttempts)
	}
	if *retryBudget < 0 && *retryBudget != -1 {
		return fail("-retry-budget %g must not be negative (fraction of recent successes)", *retryBudget)
	}
	if *shedLimit < -1 {
		return fail("-shed-limit %d must not be negative (concurrent requests per replica)", *shedLimit)
	}
	resilienceOverride := *deadlineMs > 0 || *retries > 0 || *retryBudget >= 0 || *shedLimit >= 0
	if *stormUsers > 0 {
		if *chaos || *chaosSpec != "" {
			return fail("-storm scripts its own node crash; drop -chaos/-chaos-spec")
		}
		if *trafficUsers > 0 || *topoPath != "" {
			return fail("-storm brings its own topology; drop -traffic/-topology")
		}
	}
	if *noResilience && resilienceOverride {
		return fail("-no-resilience conflicts with -deadline-ms/-retries/-retry-budget/-shed-limit")
	}
	if (*noResilience || resilienceOverride) && *trafficUsers == 0 && *topoPath == "" && *stormUsers == 0 {
		return fail("resilience flags need a traffic topology: add -traffic, -topology or -storm")
	}

	spec := cluster.DefaultSpec()
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			return fail("%v", err)
		}
		spec, err = cluster.Load(f)
		f.Close()
		if err != nil {
			return fail("%v", err)
		}
	}
	if *nodes > 0 {
		spec.Nodes = *nodes
	}
	if *cores > 0 {
		spec.CoresPerNode = *cores
	}
	if *duration > 0 {
		spec.DurationSeconds = *duration
	}
	if *warmup >= 0 {
		spec.WarmupSeconds = *warmup
	}
	if *batchPods >= 0 {
		spec.Batch.Pods = *batchPods
	}
	if *services > 0 && *services < len(spec.Services) {
		spec.Services = spec.Services[:*services]
	}
	if *evictVPI > 0 {
		spec.EvictVPI = *evictVPI
	}
	if *hotRounds > 0 {
		spec.HotRounds = *hotRounds
	}
	if *seed != 0 {
		spec.Seed = *seed
	}
	if *lod != "" {
		spec.LoD = *lod
	}
	if *chaosSpec != "" {
		f, err := os.Open(*chaosSpec)
		if err != nil {
			return fail("%v", err)
		}
		sched, err := faults.Load(f)
		f.Close()
		if err != nil {
			return fail("-chaos-spec %s: %v", *chaosSpec, err)
		}
		spec.Chaos = &sched
	} else if *chaos {
		sched := faults.DefaultSchedule()
		spec.Chaos = &sched
	}
	if *noDegrade {
		spec.DisableDegradation = true
	}
	if *topoPath != "" {
		f, err := os.Open(*topoPath)
		if err != nil {
			return fail("%v", err)
		}
		topo, err := scenario.LoadTopology(f)
		f.Close()
		if err != nil {
			return fail("-topology %s: %v", *topoPath, err)
		}
		spec.Topology = &topo
		spec.Services = nil
	} else if *trafficUsers > 0 {
		// The default diurnal day spans the whole run (warmup + measured
		// window), so the trough, both spikes and the evening decay all
		// land inside the simulation.
		topo := scenario.DefaultTopology(int64(*trafficUsers), spec.WarmupSeconds+spec.DurationSeconds)
		spec.Topology = &topo
		spec.Services = nil
	} else if *stormUsers > 0 {
		// The storm scenario mirrors the registered experiment: resilient
		// client stack by default, and a scripted crash of a replica-hosting
		// node just as the flash crowd ramps in.
		day := spec.WarmupSeconds + spec.DurationSeconds
		topo := scenario.StormTopology(int64(*stormUsers), day, scenario.StormResilience())
		spec.Topology = &topo
		spec.Services = nil
		hbSec := float64(spec.HeartbeatMs) / 1000
		spike := topo.Programs[0].Spikes[0]
		crashRound := int((spike.StartSeconds + 0.05*spike.DurationSeconds) / hbSec)
		downRounds := int(0.4 * spike.DurationSeconds / hbSec)
		if downRounds < 4 {
			downRounds = 4
		}
		var sched faults.Spec
		sched.Nodes.Crashes = []faults.NodeCrash{{Node: 0, Round: crashRound, DownRounds: downRounds}}
		spec.Chaos = &sched
	}
	if spec.Topology != nil && (*noResilience || resilienceOverride) {
		for i := range spec.Topology.Services {
			svc := &spec.Topology.Services[i]
			if *noResilience {
				svc.Resilience = nil
				continue
			}
			var rz scenario.ResilienceSpec
			if svc.Resilience != nil {
				rz = *svc.Resilience
			} else if *deadlineMs <= 0 {
				return fail("service %q has no resilience spec; -deadline-ms is required to add one", svc.Name)
			}
			if *deadlineMs > 0 {
				rz.DeadlineMs = *deadlineMs
			}
			if *retries > 0 {
				rz.MaxAttempts = *retries
			}
			if *retryBudget >= 0 {
				rz.RetryBudget = *retryBudget
			}
			if *shedLimit >= 0 {
				rz.ConcurrencyLimit = *shedLimit
			}
			svc.Resilience = &rz
		}
	}

	opt := cluster.RunOptions{Workers: *parallel}
	placers := []string{spec.Placer}
	switch *placer {
	case "":
	case "both":
		placers = []string{cluster.PlacerVPI, cluster.PlacerBinPack}
	default:
		placers = []string{*placer}
	}
	if len(placers) > 1 && (*traceOut != "" || *flightOut != "") {
		return fail("-trace-out/-flight-out need a single placement policy, not -placer both")
	}
	needObs := *traceOut != "" || *flightOut != "" || *dashboard
	code := 0
	for i, p := range placers {
		spec.Placer = p
		var plane *obs.Plane
		if needObs {
			plane = obs.NewPlane(spec.Nodes, 0)
		}
		opt.Obs = plane
		res, err := runCluster(spec, opt)
		if err != nil {
			return fail("%v", err)
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprint(stdout, res.Render())
		if *dashboard {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, report.Dashboard("fleet observability: "+spec.Name, plane))
		}
		if *traceOut != "" {
			spans := plane.MergedSpans()
			if err := writeSpans(*traceOut, spans); err != nil {
				return fail("%v", err)
			}
			fmt.Fprintf(stderr, "trace: %d spans -> %s\n", len(spans), *traceOut)
		}
		if *flightOut != "" {
			bundle := obs.CaptureFlight(plane, "operator request (-flight-out)", 0)
			if err := os.WriteFile(*flightOut, []byte(bundle.Render()), 0o644); err != nil {
				return fail("%v", err)
			}
			fmt.Fprintf(stderr, "flight recorder: %d spans, %d alerts -> %s\n",
				len(bundle.Spans), len(bundle.Alerts), *flightOut)
		}
		if res.Traffic != nil && !res.Traffic.Conserved {
			fmt.Fprintln(stderr, "holmes-cluster: request accounting not conserved")
			code = 1
		}
	}
	return code
}

// runCluster is cluster.Run; tests wrap it to falsify the traffic
// accounting the exit status checks.
var runCluster = cluster.Run

// writeSpans exports spans by extension: .jsonl as one span per line,
// anything else as Chrome trace-event JSON (loadable in Perfetto).
func writeSpans(path string, spans []telemetry.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = telemetry.WriteSpansJSONL(f, spans)
	} else {
		err = telemetry.WriteChromeTrace(f, spans)
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `holmes-cluster runs a simulated multi-node cluster under the
VPI-aware placement scheduler (internal/cluster).

Flags:
  -spec FILE        JSON cluster spec; flags below override its shape fields
  -nodes N          fleet size (default 6)
  -cores N          physical cores per node (default 8)
  -placer P         "vpi", "binpack", "score" (predicted post-placement
                    interference over the sharded registry), or "both" for a
                    side-by-side vpi/binpack comparison
  -lod M            node fidelity: "full" simulates every node every round;
                    "auto" fast-forwards quiescent nodes (not dead, not
                    suspect, cool VPI trend, nothing placed) and catches them
                    up on demand; auto is ignored under node-fault chaos
  -duration S       measured window in simulated seconds (default 3)
  -warmup S         warmup in simulated seconds (default 1)
  -batch-pods N     total BestEffort pods submitted (default 48)
  -services N       run only the first N services of the spec (0 = all)
  -evict-vpi V      reconciler eviction threshold on the node VPI trend (default 25)
  -hot-rounds N     consecutive hot heartbeats before an eviction (default 2)
  -seed N           simulation seed (default 1)
  -chaos            inject the default deterministic fault schedule
                    (counter faults, cgroup event loss, node crashes)
  -chaos-spec FILE  JSON fault schedule (see internal/faults); overrides -chaos
  -traffic N        attach the default open-loop traffic topology modeling N
                    users: replicated LC services behind a least-queue load
                    balancer, a diurnal arrival curve with two flash-crowd
                    spikes, and a telemetry-driven autoscaler. Replaces the
                    spec's static services; the day spans warmup + duration
  -topology FILE    JSON traffic topology (replicated services + traffic
                    programs, see internal/scenario); overrides -traffic
  -storm N          run the retry-storm scenario modeling N users: a redis
                    frontend under a flash crowd, the resilient client stack
                    (deadlines, budgeted retries, breaker, shedding), and a
                    scripted crash of a replica-hosting node at the spike's
                    onset; conflicts with -chaos/-chaos-spec/-traffic/-topology
  -deadline-ms MS   override every service's per-request deadline; required
                    when adding resilience to services that have none
  -retries N        override total attempts per request (1 = no retries,
                    capped by the per-attempt accounting arrays)
  -retry-budget F   override the retry budget as a fraction of recent
                    successes (0 = unlimited retries)
  -shed-limit N     override the replica admission concurrency limit
                    (0 = no load shedding)
  -no-resilience    strip the resilience layer from every service
  -no-degrade       disable graceful degradation: no daemon watchdog or
                    cgroupfs re-scan, no failure detector or rescheduling
  -parallel N       max concurrent node simulations (default GOMAXPROCS);
                    per-node seeds derive from (seed, node ID), so the
                    output is byte-identical at any parallelism
  -trace-out FILE   write the merged pod-lifecycle + daemon span timeline
                    to FILE (.jsonl = one span per line, otherwise Chrome
                    trace-event JSON loadable in Perfetto / chrome://tracing)
  -flight-out FILE  write the flight-recorder post-mortem bundle (last
                    spans, burn-rate alerts, fleet series) to FILE
  -dashboard        print the fleet observability dashboard (sparkline
                    series, alert log, span totals) after the run

With a traffic topology attached, the exit status is 1 when the request
accounting identity does not hold.
`)
}
