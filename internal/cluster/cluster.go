// Package cluster is the multi-node control plane over kubelite nodes:
// the paper's §8 future work (cluster-manager integration) lifted from
// one machine to a fleet. Every node is a full simulated machine with a
// kernel, a cgroup filesystem, a Holmes daemon and a kubelite agent; the
// control plane coordinates them in heartbeat rounds —
//
//   - a node registry holds each node's latest telemetry snapshot
//     (per-CPU VPI, reserved-pool size, LC utilization, batch occupancy);
//   - a placement scheduler scores candidate nodes per pod: the
//     VPI-aware policy spreads Guaranteed pods away from interfered
//     nodes and backfills BestEffort pods onto lendable SMT capacity,
//     with plain bin-packing as the baseline;
//   - a reconciler evicts BestEffort pods off nodes whose smoothed VPI
//     stays above threshold, rescheduling them with bounded retries and
//     exponential backoff so draining cannot livelock.
//
// Between rounds the nodes are mutually independent, so the cluster
// advances them on the internal/runner pool; with per-node seeds derived
// via rng.DeriveSeed the run is byte-identical at any parallelism.
package cluster

import (
	"fmt"
	"sort"
	"strings"

	"github.com/holmes-colocation/holmes/internal/batch"
	"github.com/holmes-colocation/holmes/internal/lcservice"
	"github.com/holmes-colocation/holmes/internal/obs"
	"github.com/holmes-colocation/holmes/internal/stats"
	"github.com/holmes-colocation/holmes/internal/telemetry"
	"github.com/holmes-colocation/holmes/internal/trace"
)

// RunOptions are the execution knobs that are not part of the workload
// description: Workers bounds node-simulation parallelism (<= 1 serial;
// results identical either way) and Telemetry, when non-nil, receives
// every node's daemon metrics, events and modeled recording cost.
type RunOptions struct {
	Workers   int
	Telemetry *telemetry.Set
	// Obs, when non-nil, records the run's observability artifacts: pod
	// lifecycle and node fault spans on the control-plane recorder, each
	// node daemon's decision-chain spans on its per-node recorder, fleet
	// time-series rollups, and the burn-rate alert log. Recording is pure
	// observation — attaching a plane never changes what the run computes
	// (the burn-rate engine itself always runs; it feeds the reconciler).
	Obs *obs.Plane
}

// maxPlaceRetries bounds how many rounds a pending pod is retried when no
// node fits before it is dropped and counted as a failed placement. Waiting
// for capacity is normal (pods queue while earlier ones drain), so the
// bound is generous; it exists to stop a pod the fleet can never fit from
// circulating forever.
const maxPlaceRetries = 400

// maxBackoffRounds caps the reconciler's exponential requeue backoff.
const maxBackoffRounds = 8

// trendAlpha is the per-round EWMA weight for a node's VPI trend.
const trendAlpha = 0.3

// lodQuietVPI is the VPI-trend ceiling below which an unoccupied,
// unsuspected node counts as quiescent for the level-of-detail policy. A
// node that was recently hot keeps full fidelity until its trend decays
// under this (about nine rounds from the eviction threshold at
// trendAlpha), so the fast-forward path never hides a cooling node.
const lodQuietVPI = 1.0

// pendingPod is one queue entry awaiting placement.
type pendingPod struct {
	req                        PodRequest
	svc                        *ServiceSpec    // non-nil for Guaranteed service pods
	rep                        *trafficReplica // non-nil for replicated-service pods
	kind                       batch.Kind
	containers, threads, units int
	retries                    int // placement attempts that found no node
	evictions                  int // times the reconciler has evicted this pod
	notBefore                  int // earliest round for the next attempt
}

// servicePending queues service ss for placement no earlier than round
// notBefore (its initial placement, or a failover).
func servicePending(ss ServiceSpec, notBefore int) *pendingPod {
	return &pendingPod{
		req:       PodRequest{Name: ss.Name, Guaranteed: true, Threads: serviceThreads(ss.Store)},
		svc:       &ss,
		notBefore: notBefore,
	}
}

// resumeFrom checkpoints a batch pod that already finished done work
// units across all its threads: it restarts with only the remaining
// units per thread (at least one, so it still runs to completion).
func (p *pendingPod) resumeFrom(done int) {
	threads := p.containers * p.threads
	remaining := threads*p.units - done
	p.units = (remaining + threads - 1) / threads
	if p.units < 1 {
		p.units = 1
	}
}

// placedPod tracks a running BestEffort pod for the reconciler.
type placedPod struct {
	pending *pendingPod
	node    int
	seq     int // placement sequence, for youngest-first eviction
}

// ServiceResult is one Guaranteed service's measured outcome.
type ServiceResult struct {
	Name     string
	Store    string
	Workload string
	Node     int
	Queries  int64
	Summary  stats.Summary
	// SLOViolations is the fraction of measured queries over the SLO.
	SLOViolations float64
	// Lost marks a service whose node died and that never found a new
	// home by run end; it contributes no latency numbers.
	Lost bool
}

// Result is a cluster run's outcome.
type Result struct {
	Spec     Spec
	Rounds   int
	Services []ServiceResult
	// MeanP99/WorstP99 aggregate the services' p99 latency (ns).
	MeanP99  float64
	WorstP99 float64
	// SLOViolationRatio is the query-weighted violation fraction.
	SLOViolationRatio float64
	// ClusterUtil is the mean node-wide busy fraction over the window.
	ClusterUtil float64
	// BatchCompleted counts finite BestEffort pods finished in-window.
	BatchCompleted int
	// PeakSmoothedVPI is the highest per-node VPI trend the registry held
	// during the measured window (reconciler diagnostics).
	PeakSmoothedVPI float64
	// Control-plane statistics (whole run, including warmup).
	PlacedBatch      int
	Evictions        int
	Requeues         int
	FailedPlacements int
	PinnedPods       int
	// Batch pod-stream conservation accounting (whole run): every admitted
	// pod is, at run end, completed, still running, still queued, or
	// dropped — BatchArrived == BatchDoneTotal + BatchRunning + BatchQueued
	// + BatchFailed. Unlike BatchCompleted, BatchDoneTotal counts warmup
	// completions too.
	BatchArrived   int
	BatchDoneTotal int
	BatchRunning   int
	BatchQueued    int
	BatchFailed    int
	// LoDSkips counts node-rounds the level-of-detail policy
	// fast-forwarded instead of simulating (0 under LoD "full").
	LoDSkips int
	// Fault and degradation statistics (all zero in fault-free runs).
	Crashes            int
	Reboots            int
	HeartbeatsMissed   int
	SlowRounds         int
	NodesDied          int
	NodesRejoined      int
	CheckpointRequeues int
	ServiceFailovers   int
	FencedPods         int
	SafeModeEntries    int64
	RescanRepairs      int64
	// Burn-rate alerting outcome: page/ticket activations plus the full
	// deterministic transition log (identical at any worker count).
	PageAlerts   int
	TicketAlerts int
	Alerts       []obs.Alert
	// Traffic is the open-loop traffic plane's outcome (nil when the spec
	// has no topology).
	Traffic *TrafficResult
}

// TotalQueries returns the completed, measured queries summed over the
// run's non-lost services — the denominator behind SLOViolationRatio. A
// verdict derived from that ratio is only meaningful when this is large
// enough; with zero completed queries the ratio is vacuously 0.
func (r *Result) TotalQueries() int64 {
	var n int64
	for _, s := range r.Services {
		n += s.Queries
	}
	return n
}

// requeueBackoff is how many rounds an evicted pod waits before its next
// placement attempt: exponential in its eviction count, capped so a
// pinning-bound pod cannot be delayed unboundedly. Eviction counts below
// one take the minimum backoff — shifting by a negative amount panics.
func requeueBackoff(evictions int) int {
	if evictions < 1 {
		return 1
	}
	b := 1 << (evictions - 1)
	if b > maxBackoffRounds {
		b = maxBackoffRounds
	}
	return b
}

// eviction is one reconciler decision.
type eviction struct {
	node int
	pod  string
}

// reconcileDecisions returns the pods to evict this round: for every node
// hot for at least hotRounds consecutive heartbeats, the youngest
// still-evictable BestEffort pod (least sunk work). Pods already evicted
// maxEvictions times are pinned and never chosen again, which — together
// with the requeue backoff — bounds the reschedule churn.
func reconcileDecisions(states []NodeState, placed map[string]*placedPod, hotRounds, maxEvictions int) []eviction {
	byNode := map[int]*placedPod{}
	names := make([]string, 0, len(placed))
	for name := range placed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pp := placed[name]
		if pp.pending.evictions >= maxEvictions {
			continue
		}
		if cur := byNode[pp.node]; cur == nil || pp.seq > cur.seq {
			byNode[pp.node] = pp
		}
	}
	var evs []eviction
	for _, st := range states {
		if st.Hot < hotRounds {
			continue
		}
		if pp := byNode[st.ID]; pp != nil {
			evs = append(evs, eviction{node: st.ID, pod: pp.pending.req.Name})
		}
	}
	return evs
}

// serviceThreads is the declared thread count of a service pod: the
// store's lcservice workers plus background workers.
func serviceThreads(store string) int {
	cfg := lcservice.DefaultConfigFor(store)
	return cfg.Workers + cfg.BackgroundWorkers
}

// Render prints the run as a table plus summary lines.
func (r *Result) Render() string {
	var b strings.Builder
	title := r.Spec.Name
	if title == "" {
		title = "cluster"
	}
	tb := trace.NewTable(fmt.Sprintf("%s: %d nodes x %d cores, %s placement, %d rounds",
		title, r.Spec.Nodes, r.Spec.CoresPerNode, r.Spec.placer(), r.Rounds),
		"service", "workload", "node", "queries", "mean us", "p99 us", "SLO viol")
	for _, s := range r.Services {
		if s.Lost {
			tb.AddRow(s.Name, "workload-"+s.Workload, "lost", 0, "-", "-", "-")
			continue
		}
		if !s.Summary.Valid {
			// A live service that measured nothing (every request lost to
			// faults) has no latency distribution; printing the zero-valued
			// Summary would read as perfect latency and 0% violations.
			tb.AddRow(s.Name, "workload-"+s.Workload, s.Node, 0, "n/a", "n/a", "n/a")
			continue
		}
		tb.AddRow(s.Name, "workload-"+s.Workload, s.Node, s.Queries,
			fmt.Sprintf("%.1f", s.Summary.Mean/1e3),
			fmt.Sprintf("%.1f", s.Summary.P99/1e3),
			fmt.Sprintf("%.2f%%", 100*s.SLOViolations))
	}
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\ncluster utilization: %.1f%%   batch pods completed: %d (placed %d)\n",
		100*r.ClusterUtil, r.BatchCompleted, r.PlacedBatch)
	fmt.Fprintf(&b, "reconciler: %d evictions, %d requeues, %d failed placements, %d pinned pods (peak node VPI %.1f)\n",
		r.Evictions, r.Requeues, r.FailedPlacements, r.PinnedPods, r.PeakSmoothedVPI)
	if r.Spec.LoD != "" {
		fmt.Fprintf(&b, "fidelity: lod=%s, %d node-rounds fast-forwarded of %d\n",
			r.Spec.LoD, r.LoDSkips, r.Rounds*r.Spec.Nodes)
	}
	if r.Traffic != nil {
		r.Traffic.render(&b)
	}
	fmt.Fprintf(&b, "alerts: %d page, %d ticket burn-rate activations\n",
		r.PageAlerts, r.TicketAlerts)
	for _, a := range r.Alerts {
		if a.Severity == "page" {
			fmt.Fprintf(&b, "  %s\n", a.String())
		}
	}
	if r.Spec.Chaos != nil {
		fmt.Fprintf(&b, "chaos: %d crashes (%d reboots), %d heartbeats lost, %d slow rounds; detector: %d declared dead, %d rejoined\n",
			r.Crashes, r.Reboots, r.HeartbeatsMissed, r.SlowRounds, r.NodesDied, r.NodesRejoined)
		fmt.Fprintf(&b, "recovery: %d checkpoint requeues, %d service failovers, %d fenced pods; safe-mode entries %d, rescan repairs %d\n",
			r.CheckpointRequeues, r.ServiceFailovers, r.FencedPods, r.SafeModeEntries, r.RescanRepairs)
	}
	return b.String()
}
