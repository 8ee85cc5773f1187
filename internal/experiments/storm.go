package experiments

import (
	"fmt"
	"strings"

	"github.com/holmes-colocation/holmes/internal/cluster"
	"github.com/holmes-colocation/holmes/internal/faults"
	"github.com/holmes-colocation/holmes/internal/obs"
	"github.com/holmes-colocation/holmes/internal/scenario"
)

// StormResult holds the three arms of the metastable retry-storm
// experiment: the same fleet, topology, flash crowd and scripted node
// crash, differing only in the client stack's resilience configuration.
//
//   - Naive: deadlines and unbounded-ish retries (4 attempts, no budget,
//     no breaker, no shedding) — the configuration that turns a capacity
//     dip into a self-sustaining retry storm: timeouts breed retries,
//     retries deepen queues, deeper queues breed more timeouts.
//   - Resilient: the same deadline with budgeted retries, a circuit
//     breaker and replica-side load shedding — the storm must
//     self-extinguish and goodput must recover once the node reboots.
//   - Control: deadline only, no retries — the floor that shows how much
//     of the naive arm's damage is self-inflicted amplification.
type StormResult struct {
	Naive     *cluster.Result
	Resilient *cluster.Result
	Control   *cluster.Result

	// ResilientObs is the resilient arm's observability plane: breaker
	// spans, resilience series and burn-rate alerts for the flight
	// recorder on a FAIL verdict.
	ResilientObs *obs.Plane

	// CrashRound/RebootRound delimit the injected outage; WindowEnd is
	// the last round of the storm window the verdict measures over.
	CrashRound  int
	RebootRound int
	WindowEnd   int
}

// Acceptance band for the storm verdict.
const (
	// stormMinArrivals gates the verdict exactly like the traffic
	// experiment: compressed equivalence runs render without judging.
	stormMinArrivals = 2000
	// stormNaiveAmpBound is the floor on the naive arm's storm-window
	// request amplification for the metastability claim.
	stormNaiveAmpBound = 2.0
	// stormRecoveryRatio is the goodput-to-offered-load ratio (trailing
	// mean) the resilient arm must regain after the reboot.
	stormRecoveryRatio = 0.7
	// stormRecoveryWindow is the trailing-mean width in rounds.
	stormRecoveryWindow = 8
	// stormRecoverySlack is how many rounds past the reboot the resilient
	// arm has to reach the recovery ratio: breaker hold (8 rounds) +
	// half-open probing + queue drain, with margin.
	stormRecoverySlack = 40
)

// stormUsers sizes the load so the flash crowd genuinely exceeds the
// fleet's service rate. Measured single-loop redis throughput is ~2700
// ops/round, so the 4-replica fleet serves ~10.8k/round and the crashed
// 3-replica fleet ~8.1k/round; 2M users put the spike at ~12k first
// attempts/round — ~1.5x the crashed fleet and ~1.1x the rebooted one.
// Shedding holds the resilient arm's goodput at fleet capacity (ratio
// ~0.9 of offered, above the recovery bar), while the naive arm's
// amplified offered load stays pinned past capacity: the metastable
// regime. The same population serves both profiles; the full profile
// stresses duration, not rate.
func stormUsers(o Options) int64 {
	return 2_000_000
}

// RunStorm runs the three arms under a flash crowd colliding with a node
// crash at the spike's onset.
func RunStorm(o Options) (*StormResult, error) {
	spec := cluster.DefaultSpec()
	spec.Nodes = 5
	spec.Services = nil
	// No batch stream: the storm isolates the request-path feedback loop,
	// so fleet capacity must be a constant of the experiment.
	spec.Batch = cluster.BatchStream{}
	spec.WarmupSeconds = float64(o.scaled(1_000_000_000)) / 1e9
	spec.DurationSeconds = float64(o.scaled(6_000_000_000)) / 1e9
	if o.Full {
		spec.DurationSeconds = float64(o.scaled(12_000_000_000)) / 1e9
	}
	if o.Seed != 0 {
		spec.Seed = o.Seed
	}
	users := stormUsers(o)
	day := spec.WarmupSeconds + spec.DurationSeconds
	topo := scenario.StormTopology(users, day, nil)

	// Crash one replica-hosting node just as the flash crowd ramps in,
	// rebooting late in the spike: the fleet loses a quarter of its
	// capacity exactly when demand quadruples. Replicas spread one per
	// node from node 0, so node 0 always hosts one.
	hbSec := float64(spec.HeartbeatMs) / 1000
	spike := topo.Programs[0].Spikes[0]
	crash := int((spike.StartSeconds + 0.05*spike.DurationSeconds) / hbSec)
	down := int(0.4 * spike.DurationSeconds / hbSec)
	if down < 4 {
		down = 4
	}
	totalRounds := int(day / hbSec)
	windowEnd := totalRounds - 1
	var sched faults.Spec
	sched.Nodes.Crashes = []faults.NodeCrash{{Node: 0, Round: crash, DownRounds: down}}

	res := &StormResult{
		ResilientObs: obs.NewPlane(spec.Nodes, 0),
		CrashRound:   crash,
		RebootRound:  crash + down,
		WindowEnd:    windowEnd,
	}
	opt := cluster.RunOptions{Workers: o.workers(), Telemetry: o.Telemetry}

	run := func(name string, rz *scenario.ResilienceSpec, ro cluster.RunOptions) (*cluster.Result, error) {
		s := spec
		s.Name = name
		t := topo
		t.Services = append([]scenario.ReplicatedService(nil), topo.Services...)
		t.Services[0].Resilience = rz
		s.Topology = &t
		s.Chaos = &sched
		return cluster.Run(s, ro)
	}

	var err error
	if res.Naive, err = run("storm: naive unbounded retries", scenario.NaiveResilience(), opt); err != nil {
		return nil, err
	}
	resilientOpt := opt
	resilientOpt.Obs = res.ResilientObs
	if res.Resilient, err = run("storm: budgeted retries + breaker + shedding", scenario.StormResilience(), resilientOpt); err != nil {
		return nil, err
	}
	control := scenario.NaiveResilience()
	control.MaxAttempts = 1
	if res.Control, err = run("storm: no-retry control", control, opt); err != nil {
		return nil, err
	}
	return res, nil
}

// stormWindow clamps [from, to] to a round series and returns the sums
// of first attempts, retries and completions inside it.
func stormWindow(t *cluster.TrafficResult, from, to int) (first, retries, done int64) {
	if from < 0 {
		from = 0
	}
	for r := from; r <= to && r < len(t.RoundArrivals); r++ {
		first += t.RoundArrivals[r]
		retries += t.RoundRetries[r]
		done += t.RoundCompletions[r]
	}
	return first, retries, done
}

// WindowAmplification is an arm's request amplification inside the storm
// window (crash round to end of run): (first + retries) / first.
func (r *StormResult) WindowAmplification(res *cluster.Result) float64 {
	first, retries, _ := stormWindow(res.Traffic, r.CrashRound, r.WindowEnd)
	if first <= 0 {
		return 1
	}
	return float64(first+retries) / float64(first)
}

// WindowGoodput is an arm's completions inside the storm window.
func (r *StormResult) WindowGoodput(res *cluster.Result) int64 {
	_, _, done := stormWindow(res.Traffic, r.CrashRound, r.WindowEnd)
	return done
}

// RecoveryRound returns the first round at or after the reboot where an
// arm's trailing-mean goodput reaches stormRecoveryRatio of the
// trailing-mean offered (first-attempt) load, or -1 if it never does.
func (r *StormResult) RecoveryRound(res *cluster.Result) int {
	t := res.Traffic
	for round := r.RebootRound; round < len(t.RoundCompletions); round++ {
		from := round - stormRecoveryWindow + 1
		first, _, done := stormWindow(t, from, round)
		if first > 0 && float64(done) >= stormRecoveryRatio*float64(first) {
			return round
		}
	}
	return -1
}

// Measured reports whether the naive arm saw enough traffic to judge.
func (r *StormResult) Measured() bool {
	return r.Naive.Traffic.Arrivals >= stormMinArrivals
}

// Conserved reports the extended accounting identity on every arm.
func (r *StormResult) Conserved() bool {
	return r.Naive.Traffic.Conserved && r.Resilient.Traffic.Conserved && r.Control.Traffic.Conserved
}

// ResilientRecovered reports whether the budgeted arm regained goodput
// within the bounded number of rounds after the reboot.
func (r *StormResult) ResilientRecovered() bool {
	rec := r.RecoveryRound(r.Resilient)
	return rec >= 0 && rec <= r.RebootRound+stormRecoverySlack
}

// Flight captures the post-mortem bundle from the resilient arm's plane.
func (r *StormResult) Flight(reason string) *obs.FlightBundle {
	return obs.CaptureFlight(r.ResilientObs, reason, obs.DefaultFlightSpans)
}

// Verdict judges the metastability claim: SKIPPED below the arrival
// floor, otherwise conservation, the naive arm's amplification, its
// goodput loss against the resilient arm and the resilient arm's
// recovery, checked in that order.
func (r *StormResult) Verdict() Verdict {
	switch {
	case !r.Measured():
		return Verdict{Skipped, fmt.Sprintf("only %d arrivals, need >= %d for evidence",
			r.Naive.Traffic.Arrivals, stormMinArrivals)}
	case !r.Conserved():
		return Verdict{Fail, "request accounting not conserved"}
	case r.WindowAmplification(r.Naive) < stormNaiveAmpBound:
		return Verdict{Fail, fmt.Sprintf("naive amplification %.2fx below %.1fx — no storm provoked",
			r.WindowAmplification(r.Naive), stormNaiveAmpBound)}
	case r.WindowGoodput(r.Naive) >= r.WindowGoodput(r.Resilient):
		return Verdict{Fail, "naive goodput not degraded vs resilient"}
	case !r.ResilientRecovered():
		return Verdict{Fail, fmt.Sprintf("resilient arm did not recover %.0f%% goodput within %d rounds of reboot",
			100*stormRecoveryRatio, stormRecoverySlack)}
	}
	return Verdict{Status: Pass}
}

// Render prints the three arms plus the storm-window comparison and the
// verdict.
func (r *StormResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Naive.Render())
	b.WriteString("\n")
	b.WriteString(r.Resilient.Render())
	b.WriteString("\n")
	b.WriteString(r.Control.Render())
	fmt.Fprintf(&b, "\nstorm window (rounds %d..%d, node 0 down %d rounds): amplification %.2fx naive / %.2fx resilient / %.2fx control; goodput %d / %d / %d\n",
		r.CrashRound, r.WindowEnd, r.RebootRound-r.CrashRound,
		r.WindowAmplification(r.Naive), r.WindowAmplification(r.Resilient), r.WindowAmplification(r.Control),
		r.WindowGoodput(r.Naive), r.WindowGoodput(r.Resilient), r.WindowGoodput(r.Control))
	verdict := r.Verdict()
	if verdict.Status == Skipped {
		fmt.Fprintf(&b, "storm verdict: %s\n", verdict)
		return b.String()
	}
	rec := "never"
	if rr := r.RecoveryRound(r.Resilient); rr >= 0 {
		rec = fmt.Sprintf("round %d (%d after reboot)", rr, rr-r.RebootRound)
	}
	fmt.Fprintf(&b, "storm verdict: naive amplification %.2fx (bound %.1fx), naive/resilient goodput %d/%d, resilient recovery %s, breaker %s: %s\n",
		r.WindowAmplification(r.Naive), stormNaiveAmpBound,
		r.WindowGoodput(r.Naive), r.WindowGoodput(r.Resilient),
		rec, stormBreakerSummary(r.Resilient.Traffic), verdict)
	if verdict.Status == Fail {
		b.WriteString("\n")
		b.WriteString(r.Flight("storm verdict " + verdict.String()).Render())
	}
	return b.String()
}

func stormBreakerSummary(t *cluster.TrafficResult) string {
	for _, s := range t.Services {
		if s.Resilient {
			return fmt.Sprintf("%d trips, final %s", s.BreakerTrips, s.BreakerState)
		}
	}
	return "n/a"
}
