package experiments

import (
	"fmt"
	"strings"

	"github.com/holmes-colocation/holmes/internal/cluster"
)

// The scale experiment is the datacenter-shaped end-to-end run: a
// 256-node fleet under the sharded registry and level-of-detail fidelity,
// comparing three placement policies on identical workloads — the
// scoring placer (predicted post-placement interference, after the
// Alibaba large-scale-cluster mechanism), the VPI-threshold soft-avoid
// policy, and bin-packing. Like every registry experiment it is
// byte-identical at any -parallel value; the PASS verdict additionally
// gates on exact pod-stream conservation in every arm.

// scaleNodes is the fleet size; fixed (not profile-dependent) because the
// point of the experiment is behavior at this scale.
const scaleNodes = 256

// scaleMinQueries is the minimum measured query count before the scoring
// arm's latency comparison can earn a PASS.
const scaleMinQueries = 100

// ScaleResult holds the three placement arms of the 256-node run.
type ScaleResult struct {
	Score   *cluster.Result
	VPI     *cluster.Result
	BinPack *cluster.Result
}

// scaleSpec builds the 256-node fleet: eight services to spread, a batch
// stream large enough to keep placement and the reconciler busy, LoD auto
// so the quiescent majority of the fleet fast-forwards.
func scaleSpec(o Options) cluster.Spec {
	spec := cluster.DefaultSpec()
	spec.Name = "scale"
	spec.Nodes = scaleNodes
	spec.LoD = cluster.LoDAuto
	spec.WarmupSeconds = float64(o.scaled(500_000_000)) / 1e9
	duration := o.scaled(2_000_000_000)
	pods := 160
	if o.Full {
		duration = o.scaled(6_000_000_000)
		pods = 480
	}
	spec.DurationSeconds = float64(duration) / 1e9
	stores := []struct {
		store string
		rps   float64
	}{
		{"redis", 10_000}, {"rocksdb", 40_000}, {"memcached", 40_000}, {"wiredtiger", 40_000},
	}
	spec.Services = nil
	for i := 0; i < 8; i++ {
		s := stores[i%len(stores)]
		spec.Services = append(spec.Services, cluster.ServiceSpec{
			Name:     fmt.Sprintf("%s-%d", s.store, i/len(stores)),
			Store:    s.store,
			Workload: "a",
			RPS:      s.rps,
		})
	}
	spec.Batch = cluster.BatchStream{Pods: pods, PodsPerRound: 8, Containers: 2,
		ThreadsPerContainer: 2, WorkUnitsPerThread: 600}
	if o.Seed != 0 {
		spec.Seed = o.Seed
	}
	return spec
}

// RunScale runs the three placement arms on the shared 256-node spec.
func RunScale(o Options) (*ScaleResult, error) {
	spec := scaleSpec(o)
	opt := cluster.RunOptions{Workers: o.workers(), Telemetry: o.Telemetry}

	res := &ScaleResult{}
	var err error
	spec.Placer = cluster.PlacerScore
	if res.Score, err = cluster.Run(spec, opt); err != nil {
		return nil, err
	}
	spec.Placer = cluster.PlacerVPI
	if res.VPI, err = cluster.Run(spec, opt); err != nil {
		return nil, err
	}
	spec.Placer = cluster.PlacerBinPack
	if res.BinPack, err = cluster.Run(spec, opt); err != nil {
		return nil, err
	}
	return res, nil
}

// conserved checks one arm's pod-stream conservation identity: every
// admitted batch pod ends the run completed, running, queued, or dropped.
func conserved(r *cluster.Result) bool {
	return r.BatchArrived == r.BatchDoneTotal+r.BatchRunning+r.BatchQueued+r.BatchFailed
}

// Measured reports whether the scoring arm completed enough queries for
// its latency comparison to mean anything.
func (r *ScaleResult) Measured() bool {
	return r.Score.TotalQueries() >= scaleMinQueries
}

// ScoreWins reports the headline comparison: the scoring placer must be
// no worse than bin-packing on both mean p99 and SLO violations.
func (r *ScaleResult) ScoreWins() bool {
	return r.Score.MeanP99 <= r.BinPack.MeanP99 &&
		r.Score.SLOViolationRatio <= r.BinPack.SLOViolationRatio
}

// Conserved reports the pod-stream conservation identity on every arm.
func (r *ScaleResult) Conserved() bool {
	return conserved(r.Score) && conserved(r.VPI) && conserved(r.BinPack)
}

// Verdict judges the scale claim: conservation, enough measured queries,
// LoD actually engaged, and the scoring placer's win over binpack,
// checked in that order.
func (r *ScaleResult) Verdict() Verdict {
	switch {
	case !r.Conserved():
		return Verdict{Fail, "pod accounting not conserved"}
	case !r.Measured():
		return Verdict{Fail, fmt.Sprintf("only %d completed queries, need >= %d for a verdict",
			r.Score.TotalQueries(), scaleMinQueries)}
	case r.Score.LoDSkips == 0:
		return Verdict{Fail, "LoD auto fast-forwarded nothing on a 256-node fleet"}
	case !r.ScoreWins():
		return Verdict{Fail, "scoring placer worse than binpack"}
	}
	return Verdict{Status: Pass}
}

// Render prints the three arms, the conservation identities, the
// head-to-head summary and the verdict.
func (r *ScaleResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Score.Render())
	b.WriteString("\n")
	b.WriteString(r.VPI.Render())
	b.WriteString("\n")
	b.WriteString(r.BinPack.Render())
	b.WriteString("\n")
	for _, arm := range []struct {
		name string
		res  *cluster.Result
	}{{"score", r.Score}, {"vpi", r.VPI}, {"binpack", r.BinPack}} {
		ok := "conserved"
		if !conserved(arm.res) {
			ok = "NOT CONSERVED"
		}
		fmt.Fprintf(&b, "pod accounting [%s]: %d arrived = %d done + %d running + %d queued + %d failed: %s\n",
			arm.name, arm.res.BatchArrived, arm.res.BatchDoneTotal, arm.res.BatchRunning,
			arm.res.BatchQueued, arm.res.BatchFailed, ok)
	}
	fmt.Fprintf(&b, "head to head (score vs vpi vs binpack): mean p99 %.1f / %.1f / %.1f us, SLO violations %.2f%% / %.2f%% / %.2f%%, batch completed %d / %d / %d\n",
		r.Score.MeanP99/1e3, r.VPI.MeanP99/1e3, r.BinPack.MeanP99/1e3,
		100*r.Score.SLOViolationRatio, 100*r.VPI.SLOViolationRatio, 100*r.BinPack.SLOViolationRatio,
		r.Score.BatchCompleted, r.VPI.BatchCompleted, r.BinPack.BatchCompleted)
	fmt.Fprintf(&b, "scale verdict (%d nodes; score <= binpack on p99 and SLO%%, all arms conserved): %s\n",
		scaleNodes, r.Verdict())
	return b.String()
}
