package experiments

import (
	"fmt"
	"strings"

	"github.com/holmes-colocation/holmes/internal/cluster"
	"github.com/holmes-colocation/holmes/internal/faults"
	"github.com/holmes-colocation/holmes/internal/obs"
)

// ChaosResult holds the three arms of the fault-injection experiment on
// the same fleet, services, batch stream and seed:
//
//   - Clean: no faults — the baseline every delta is measured against;
//   - Degraded: the default fault schedule with graceful degradation on
//     (daemon watchdog + cgroupfs re-scan, failure detector, checkpoint
//     rescheduling, fencing);
//   - Control: the same faults with every degradation mechanism disabled,
//     so the stack schedules on whatever the faults feed it.
type ChaosResult struct {
	Clean    *cluster.Result
	Degraded *cluster.Result
	Control  *cluster.Result

	// DegradedObs is the degraded arm's observability plane: the span
	// timeline and fleet series the flight recorder dumps on a FAIL
	// verdict or a page-severity alert.
	DegradedObs *obs.Plane
}

// chaosSLOHeadroom is the acceptance band for graceful degradation: the
// degraded arm must keep SLO violations within 2x the fault-free run,
// plus a small absolute floor so a near-zero baseline does not demand
// the impossible of a run with real faults in it.
const (
	chaosSLOFactor = 2.0
	chaosSLOFloor  = 0.0025 // 0.25 percentage points
)

// chaosMinQueries is the minimum number of completed service queries the
// degraded arm must have measured before its SLO ratio can earn a PASS.
// With no (or almost no) completed requests, FractionAbove is vacuously
// ~0 — a fleet whose services all died would otherwise "pass".
const chaosMinQueries = 100

// RunChaos runs the three arms under faults.DefaultSchedule.
func RunChaos(o Options) (*ChaosResult, error) {
	// One node more than the default service count, so the schedule's
	// SpareServiceNodes guard still leaves a batch-only node to crash.
	spec := cluster.DefaultSpec()
	spec.Nodes = 5
	if o.Full {
		spec.Nodes = 8
	}
	spec.WarmupSeconds = float64(o.scaled(1_000_000_000)) / 1e9
	spec.DurationSeconds = float64(o.colocDuration()) / 1e9
	if o.Seed != 0 {
		spec.Seed = o.Seed
	}
	opt := cluster.RunOptions{Workers: o.workers(), Telemetry: o.Telemetry}

	res := &ChaosResult{}
	var err error
	clean := spec
	clean.Name = "chaos: fault-free"
	if res.Clean, err = cluster.Run(clean, opt); err != nil {
		return nil, err
	}
	sched := faults.DefaultSchedule()
	// The random crash draw is fleet-global and usually lands on a
	// service node, where SpareServiceNodes vetoes it. Script one crash
	// of the batch-only node (services fill the lowest IDs) a quarter
	// into the measured window, with a reboot, so the experiment always
	// demonstrates death detection, checkpoint rescheduling and rejoin
	// fencing. Out-of-range rounds are skipped, so tiny runs stay valid.
	hbMs := spec.HeartbeatMs
	warm := int((int64(spec.WarmupSeconds*1000) + hbMs - 1) / hbMs)
	meas := int((int64(spec.DurationSeconds*1000) + hbMs - 1) / hbMs)
	down := meas / 4
	if down < 10 {
		down = 10
	}
	sched.Nodes.Crashes = append(sched.Nodes.Crashes, faults.NodeCrash{
		Node: spec.Nodes - 1, Round: warm + meas/4, DownRounds: down,
	})
	degraded := spec
	degraded.Name = "chaos: faults + graceful degradation"
	degraded.Chaos = &sched
	res.DegradedObs = obs.NewPlane(spec.Nodes, 0)
	degradedOpt := opt
	degradedOpt.Obs = res.DegradedObs
	if res.Degraded, err = cluster.Run(degraded, degradedOpt); err != nil {
		return nil, err
	}
	control := spec
	control.Name = "chaos: faults, degradation disabled"
	control.Chaos = &sched
	control.DisableDegradation = true
	if res.Control, err = cluster.Run(control, opt); err != nil {
		return nil, err
	}
	return res, nil
}

// SLOBound is the degraded arm's acceptance ceiling for this result.
func (r *ChaosResult) SLOBound() float64 {
	return chaosSLOFactor*r.Clean.SLOViolationRatio + chaosSLOFloor
}

// DegradedMeasured reports whether the degraded arm completed enough
// queries for its SLO ratio to be evidence rather than vacuous truth.
func (r *ChaosResult) DegradedMeasured() bool {
	return r.Degraded.TotalQueries() >= chaosMinQueries
}

// DegradedWithinBound reports whether graceful degradation held the SLO:
// the violation ratio is within the acceptance band AND backed by a
// minimum number of completed queries.
func (r *ChaosResult) DegradedWithinBound() bool {
	return r.DegradedMeasured() && r.Degraded.SLOViolationRatio <= r.SLOBound()
}

// ControlWorse reports whether the no-degradation control demonstrably
// lost more SLO than the degraded arm under identical faults.
func (r *ChaosResult) ControlWorse() bool {
	return r.Control.SLOViolationRatio > r.Degraded.SLOViolationRatio
}

// AlertsAsExpected pins the burn-rate alerting contract: the scripted
// crash burns the availability budget hard enough to page the degraded
// arm, while the fault-free arm — with zero bad node-rounds — must stay
// silent.
func (r *ChaosResult) AlertsAsExpected() bool {
	return r.Degraded.PageAlerts > 0 && r.Clean.PageAlerts == 0
}

// Flight captures the post-mortem bundle from the degraded arm's
// observability plane.
func (r *ChaosResult) Flight(reason string) *obs.FlightBundle {
	return obs.CaptureFlight(r.DegradedObs, reason, obs.DefaultFlightSpans)
}

// Verdict judges graceful degradation: enough measured queries, SLO
// violations within the bound, and burn-rate alerts as expected, checked
// in that order.
func (r *ChaosResult) Verdict() Verdict {
	switch {
	case !r.DegradedMeasured():
		return Verdict{Fail, fmt.Sprintf("only %d completed queries, need >= %d for a verdict",
			r.Degraded.TotalQueries(), chaosMinQueries)}
	case !r.DegradedWithinBound():
		return Verdict{Status: Fail}
	case !r.AlertsAsExpected():
		return Verdict{Fail, fmt.Sprintf("burn-rate alerts wrong: degraded %d page, clean %d page",
			r.Degraded.PageAlerts, r.Clean.PageAlerts)}
	}
	return Verdict{Status: Pass}
}

// Render prints the three arms plus the deltas and verdicts.
func (r *ChaosResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Clean.Render())
	b.WriteString("\n")
	b.WriteString(r.Degraded.Render())
	b.WriteString("\n")
	b.WriteString(r.Control.Render())
	fmt.Fprintf(&b, "\nfaults vs fault-free: SLO violations %.2f%% -> %.2f%% degraded / %.2f%% control; mean p99 %.1f -> %.1f / %.1f us; utilization %.1f%% -> %.1f%% / %.1f%%; batch completed %d -> %d / %d\n",
		100*r.Clean.SLOViolationRatio, 100*r.Degraded.SLOViolationRatio, 100*r.Control.SLOViolationRatio,
		r.Clean.MeanP99/1e3, r.Degraded.MeanP99/1e3, r.Control.MeanP99/1e3,
		100*r.Clean.ClusterUtil, 100*r.Degraded.ClusterUtil, 100*r.Control.ClusterUtil,
		r.Clean.BatchCompleted, r.Degraded.BatchCompleted, r.Control.BatchCompleted)
	verdict := r.Verdict()
	fmt.Fprintf(&b, "graceful degradation: SLO violations %.2f%% vs bound %.2f%% (%gx fault-free + %.2fpp): %s\n",
		100*r.Degraded.SLOViolationRatio, 100*r.SLOBound(),
		chaosSLOFactor, 100*chaosSLOFloor, verdict)
	cmp := "WORSE than degraded (as expected)"
	if !r.ControlWorse() {
		cmp = "NOT worse than degraded"
	}
	fmt.Fprintf(&b, "no-degradation control: SLO violations %.2f%% — %s\n",
		100*r.Control.SLOViolationRatio, cmp)
	alerts := "degraded paged, clean silent (as expected)"
	if !r.AlertsAsExpected() {
		alerts = "UNEXPECTED"
	}
	fmt.Fprintf(&b, "burn-rate alerts: clean %d page / degraded %d page, %d ticket / control %d page — %s\n",
		r.Clean.PageAlerts, r.Degraded.PageAlerts, r.Degraded.TicketAlerts,
		r.Control.PageAlerts, alerts)
	if verdict.Status == Fail {
		b.WriteString("\n")
		b.WriteString(r.Flight("chaos verdict " + verdict.String()).Render())
	}
	return b.String()
}
