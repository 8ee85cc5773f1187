package experiments

import (
	"fmt"
	"strings"

	"github.com/holmes-colocation/holmes/internal/cluster"
	"github.com/holmes-colocation/holmes/internal/obs"
	"github.com/holmes-colocation/holmes/internal/scenario"
)

// TrafficResult holds the two arms of the open-loop traffic experiment:
// one compressed simulated day of diurnal load with two flash crowds
// over a replicated memcached frontend, run with the BestEffort backfill
// stream on and off on the same fleet, topology and seed. The claim under
// test is the paper's co-location thesis at the traffic-engine scale:
// backfill raises trough utilization while Holmes keeps the LC SLO
// intact through the spikes, with the autoscaler growing the replica set
// into each crowd and decaying it afterwards.
type TrafficResult struct {
	Backfill *cluster.Result
	Idle     *cluster.Result

	// BackfillObs is the backfill arm's observability plane: autoscaler
	// lifecycle spans and the traffic series the flight recorder bundles
	// on a FAIL verdict.
	BackfillObs *obs.Plane
}

// Acceptance band for the headline run.
const (
	// trafficSpikeSLOBound is the ceiling on the backfill arm's
	// SLO-violation fraction inside spike rounds.
	trafficSpikeSLOBound = 0.05
	// trafficMinArrivals gates the verdict: heavily compressed runs (the
	// equivalence tests run at Scale ~0.2) see too little traffic for the
	// spike/trough split to be evidence, so they render without judging.
	trafficMinArrivals = 2000
)

// trafficUsers is the modeled user population: ~1M in the full profile,
// a fifth of that in the quick profile (still well above the 100k floor
// the experiment is specified for).
func trafficUsers(o Options) int64 {
	if o.Full {
		return 1_000_000
	}
	return 200_000
}

// RunTraffic runs the compressed-day traffic engine with backfill on and
// off.
func RunTraffic(o Options) (*TrafficResult, error) {
	spec := cluster.DefaultSpec()
	spec.Nodes = 5
	spec.Services = nil
	spec.WarmupSeconds = float64(o.scaled(1_000_000_000)) / 1e9
	spec.DurationSeconds = float64(o.scaled(6_000_000_000)) / 1e9
	if o.Full {
		spec.Nodes = 8
		spec.DurationSeconds = float64(o.scaled(20_000_000_000)) / 1e9
	}
	if o.Seed != 0 {
		spec.Seed = o.Seed
	}
	users := trafficUsers(o)
	// The compressed day spans the whole run (warmup included), so the
	// measured window opens in the early-morning ramp and covers both
	// flash crowds and the late-evening decay.
	topo := scenario.DefaultTopology(users, spec.WarmupSeconds+spec.DurationSeconds)
	if o.Full {
		// The full fleet absorbs the 1M-user spikes with a deeper replica
		// ceiling and admission window.
		topo.Services[0].Autoscaler.Max = 8
		topo.Services[0].QueueCap = 1024
	}
	spec.Topology = &topo

	res := &TrafficResult{BackfillObs: obs.NewPlane(spec.Nodes, 0)}
	opt := cluster.RunOptions{Workers: o.workers(), Telemetry: o.Telemetry}

	backfill := spec
	backfill.Name = "traffic: diurnal day + backfill"
	backfill.Batch = cluster.BatchStream{Pods: 48, PodsPerRound: 2,
		Containers: 2, ThreadsPerContainer: 2, WorkUnitsPerThread: 900}
	if o.Full {
		backfill.Batch.Pods = 120
	}
	backfillOpt := opt
	backfillOpt.Obs = res.BackfillObs
	var err error
	if res.Backfill, err = cluster.Run(backfill, backfillOpt); err != nil {
		return nil, err
	}

	idle := spec
	idle.Name = "traffic: diurnal day, no backfill"
	idle.Batch = cluster.BatchStream{}
	if res.Idle, err = cluster.Run(idle, opt); err != nil {
		return nil, err
	}
	return res, nil
}

// Measured reports whether the run saw enough traffic for a verdict.
func (r *TrafficResult) Measured() bool {
	return r.Backfill.Traffic.Arrivals >= trafficMinArrivals
}

// Conserved reports request-accounting conservation on both arms.
func (r *TrafficResult) Conserved() bool {
	return r.Backfill.Traffic.Conserved && r.Idle.Traffic.Conserved
}

// SpikeSLOHeld reports whether the backfill arm kept the LC SLO through
// the flash crowds.
func (r *TrafficResult) SpikeSLOHeld() bool {
	for _, s := range r.Backfill.Traffic.Services {
		if s.SpikeQueries == 0 || s.SpikeSLO > trafficSpikeSLOBound {
			return false
		}
	}
	return true
}

// BackfillRaisedTroughUtil reports the co-location win: the backfill
// arm's trough-round fleet utilization exceeds the idle arm's.
func (r *TrafficResult) BackfillRaisedTroughUtil() bool {
	return r.Backfill.Traffic.TroughUtil > r.Idle.Traffic.TroughUtil
}

// AutoscalerReacted reports whether the replica set demonstrably grew
// into the spikes and decayed afterwards.
func (r *TrafficResult) AutoscalerReacted() bool {
	t := r.Backfill.Traffic
	return t.ScaleUps > 0 && t.ScaleDowns > 0
}

// Flight captures the post-mortem bundle from the backfill arm's plane.
func (r *TrafficResult) Flight(reason string) *obs.FlightBundle {
	return obs.CaptureFlight(r.BackfillObs, reason, obs.DefaultFlightSpans)
}

// Verdict judges the co-location claim at traffic scale: SKIPPED below
// the arrival floor, otherwise conservation, the spike SLO, the trough
// utilization win and the autoscaler's reaction, checked in that order.
func (r *TrafficResult) Verdict() Verdict {
	bt := r.Backfill.Traffic
	switch {
	case !r.Measured():
		return Verdict{Skipped, fmt.Sprintf("only %d arrivals, need >= %d for evidence",
			bt.Arrivals, trafficMinArrivals)}
	case !r.Conserved():
		return Verdict{Fail, "request accounting not conserved"}
	case !r.SpikeSLOHeld():
		return Verdict{Fail, fmt.Sprintf("spike SLO violations exceed %.0f%%", 100*trafficSpikeSLOBound)}
	case !r.BackfillRaisedTroughUtil():
		return Verdict{Fail, "backfill did not raise trough utilization"}
	case !r.AutoscalerReacted():
		return Verdict{Fail, fmt.Sprintf("autoscaler inert: %d ups, %d downs", bt.ScaleUps, bt.ScaleDowns)}
	}
	return Verdict{Status: Pass}
}

// Render prints both arms plus the deltas and the verdict.
func (r *TrafficResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Backfill.Render())
	b.WriteString("\n")
	b.WriteString(r.Idle.Render())
	bt, it := r.Backfill.Traffic, r.Idle.Traffic
	fmt.Fprintf(&b, "\nbackfill vs idle: trough utilization %.1f%% vs %.1f%%, spike utilization %.1f%% vs %.1f%%; batch completed %d vs %d\n",
		100*bt.TroughUtil, 100*it.TroughUtil,
		100*bt.SpikeUtil, 100*it.SpikeUtil,
		r.Backfill.BatchCompleted, r.Idle.BatchCompleted)
	verdict := r.Verdict()
	if verdict.Status == Skipped {
		fmt.Fprintf(&b, "traffic verdict: %s\n", verdict)
		return b.String()
	}
	fmt.Fprintf(&b, "traffic verdict: backfill trough util %.1f%% vs idle %.1f%%, spike SLO %.2f%% (bound %.0f%%), autoscaler %d up / %d down: %s\n",
		100*bt.TroughUtil, 100*it.TroughUtil,
		100*worstSpikeSLO(bt), 100*trafficSpikeSLOBound,
		bt.ScaleUps, bt.ScaleDowns, verdict)
	if verdict.Status == Fail {
		b.WriteString("\n")
		b.WriteString(r.Flight("traffic verdict " + verdict.String()).Render())
	}
	return b.String()
}

func worstSpikeSLO(t *cluster.TrafficResult) float64 {
	var worst float64
	for _, s := range t.Services {
		if s.SpikeSLO > worst {
			worst = s.SpikeSLO
		}
	}
	return worst
}
