package cluster

import (
	"fmt"
	"strings"
	"testing"

	"github.com/holmes-colocation/holmes/internal/faults"
	"github.com/holmes-colocation/holmes/internal/obs"
	"github.com/holmes-colocation/holmes/internal/scenario"
)

// trafficSpec is a small traffic-only cluster: no closed-loop services,
// no batch stream, one replicated frontend under the default diurnal
// program compressed into a few simulated seconds.
func trafficSpec(users int64) Spec {
	spec := DefaultSpec()
	spec.Name = "traffic-test"
	spec.Nodes = 4
	spec.Services = nil
	spec.Batch = BatchStream{}
	spec.WarmupSeconds = 0.5
	spec.DurationSeconds = 4
	topo := scenario.DefaultTopology(users, spec.WarmupSeconds+spec.DurationSeconds)
	spec.Topology = &topo
	return spec
}

func TestTrafficConservationAndScaling(t *testing.T) {
	res, err := Run(trafficSpec(120_000), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Traffic
	if tr == nil {
		t.Fatal("no traffic result on a run with a topology")
	}
	if !tr.Conserved {
		t.Fatalf("request accounting not conserved: %d arrivals != %d done + %d drop + %d lost + %d in flight",
			tr.Arrivals, tr.Completions, tr.Drops, tr.Lost, tr.InFlight)
	}
	if tr.Arrivals < 1000 {
		t.Fatalf("implausibly few arrivals: %d", tr.Arrivals)
	}
	if tr.Completions == 0 {
		t.Fatal("no completed requests")
	}
	if tr.ScaleUps == 0 {
		t.Errorf("autoscaler never scaled up through two spikes (arrivals %d, drops %d)",
			tr.Arrivals, tr.Drops)
	}
	if tr.ScaleDowns == 0 {
		t.Errorf("autoscaler never decayed after the spikes (scale-ups %d)", tr.ScaleUps)
	}
	fe := tr.Services[0]
	if fe.PeakReplicas <= 2 {
		t.Errorf("replica count never rose above the initial 2 (peak %d)", fe.PeakReplicas)
	}
	if !fe.Summary.Valid {
		t.Error("no measured latency distribution for the frontend")
	}
	out := res.Render()
	for _, want := range []string{"traffic plane", "request accounting", "conserved", "autoscaler:"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered result missing %q", want)
		}
	}
}

// TestTrafficDeterministicAcrossWorkers pins the traffic plane's
// determinism contract: byte-identical rendered output at any advance
// parallelism, with and without an observability plane attached.
func TestTrafficDeterministicAcrossWorkers(t *testing.T) {
	spec := trafficSpec(60_000)
	spec.DurationSeconds = 2
	base, err := Run(spec, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		res, err := Run(spec, RunOptions{Workers: workers, Obs: obs.NewPlane(spec.Nodes, 0)})
		if err != nil {
			t.Fatal(err)
		}
		if base.Render() != res.Render() {
			t.Fatalf("workers=%d output differs from serial run", workers)
		}
	}
}

// TestTrafficFailoverAccounting drives traffic through a scripted node
// crash: the balancer must fail over without losing track of a single
// request — completions + drops + lost + in-flight still sum to
// arrivals — and the replica floor must be restored on a new node.
func TestTrafficFailoverAccounting(t *testing.T) {
	spec := trafficSpec(120_000)
	sched := faults.Spec{}
	sched.Nodes.Crashes = []faults.NodeCrash{{Node: 1, Round: 30, DownRounds: 25}}
	spec.Chaos = &sched
	res, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Traffic
	if res.Crashes == 0 {
		t.Fatal("scripted crash did not fire")
	}
	if !tr.Conserved {
		t.Fatalf("accounting broke across failover: %d arrivals != %d done + %d drop + %d lost + %d in flight",
			tr.Arrivals, tr.Completions, tr.Drops, tr.Lost, tr.InFlight)
	}
	fe := tr.Services[0]
	if fe.Replicas < spec.Topology.Services[0].MinReplicas() {
		t.Errorf("replica floor not restored after crash: %d live, want >= %d",
			fe.Replicas, spec.Topology.Services[0].MinReplicas())
	}
	if fe.Lost == 0 && fe.Drops == 0 {
		t.Log("crash lost no in-flight requests (possible on an idle round, but worth noting)")
	}
}

// resilientFaultSpec is trafficSpec with the full resilience layer
// (deadlines, budgeted retries, breaker, shedding) under a node crash
// overlapping a heartbeat partition.
func resilientFaultSpec() Spec {
	spec := trafficSpec(120_000)
	spec.Topology.Services[0].Resilience = &scenario.ResilienceSpec{
		DeadlineMs:         40,
		MaxAttempts:        3,
		RetryBackoffRounds: 1,
		RetryJitterRounds:  2,
		RetryBudget:        0.2,
		BreakerFailureRate: 0.5,
		BreakerMinVolume:   100,
		ConcurrencyLimit:   96,
	}
	sched := faults.Spec{}
	sched.Nodes.Crashes = []faults.NodeCrash{{Node: 0, Round: 25, DownRounds: 20}}
	sched.Nodes.Partitions = []faults.NodePartition{{Node: 1, Round: 30, Rounds: 6}}
	spec.Chaos = &sched
	return spec
}

// TestTrafficResilienceUnderFaults drives a resilient client stack
// (deadlines, budgeted retries, breaker, shedding) through a combined
// fault schedule — a node crash overlapping a heartbeat partition — and
// requires the extended accounting identity to stay exact: arrivals =
// completions + drops + shed + expired + lost + in-flight, with retries
// tracked separately as amplification.
func TestTrafficResilienceUnderFaults(t *testing.T) {
	spec := resilientFaultSpec()
	res, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Traffic
	if res.Crashes == 0 {
		t.Fatal("scripted crash did not fire")
	}
	if !tr.Conserved {
		t.Fatalf("extended accounting broke under faults: %d arrivals != %d done + %d drop + %d shed + %d expired + %d lost + %d in flight",
			tr.Arrivals, tr.Completions, tr.Drops, tr.Shed, tr.Expired, tr.Lost, tr.InFlight)
	}
	fe := tr.Services[0]
	if !fe.Resilient {
		t.Fatal("service did not report a resilience layer")
	}
	// Retries are amplification on top of first attempts, never part of
	// the conserved identity: every retry is itself an arrival.
	if tr.Retries > 0 && tr.Arrivals <= tr.Completions+tr.Drops {
		if tr.Amplification() < 1 {
			t.Fatalf("amplification %.3f below 1 with %d retries", tr.Amplification(), tr.Retries)
		}
	}
	if fe.Retries != tr.Retries {
		t.Fatalf("service retries %d != fleet retries %d on a one-service topology",
			fe.Retries, tr.Retries)
	}
	// The drop-reason split must cover every drop.
	if fe.DropsUnroutable+fe.DropsCapacity+fe.DropsBreaker != fe.Drops {
		t.Fatalf("drop reasons %d+%d+%d do not sum to %d",
			fe.DropsUnroutable, fe.DropsCapacity, fe.DropsBreaker, fe.Drops)
	}
	out := res.Render()
	for _, want := range []string{"request-path resilience", "shed", "expired", "conserved"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered resilient result missing %q", want)
		}
	}
	// Determinism holds under the combined schedule too.
	again, err := Run(spec, RunOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Render() != again.Render() {
		t.Fatal("resilient faulted run not deterministic across workers")
	}
}

// TestTrafficAutoscalerSpans checks the replica lifecycle is visible on
// the observability plane: scale-up/scale-down spans on the control-plane
// recorder and the autoscaler replica series in the store.
func TestTrafficAutoscalerSpans(t *testing.T) {
	plane := obs.NewPlane(4, 0)
	res, err := Run(trafficSpec(120_000), RunOptions{Obs: plane})
	if err != nil {
		t.Fatal(err)
	}
	if res.Traffic.ScaleUps == 0 {
		t.Skip("no scale-ups this run; span presence untestable")
	}
	var ups, retires int
	for _, s := range plane.Control().Snapshot() {
		switch s.Kind.String() {
		case "ReplicaScaleUp":
			ups++
		case "ReplicaRetire":
			retires++
		}
	}
	if ups == 0 {
		t.Error("no ReplicaScaleUp spans recorded")
	}
	if res.Traffic.ScaleDowns > 0 && retires == 0 {
		t.Error("scale-downs happened but no ReplicaRetire spans recorded")
	}
	series := plane.Store.Series("autoscaler/frontend/replicas").Points()
	if len(series) == 0 {
		t.Fatal("no autoscaler replica series recorded")
	}
	var peak float64
	for _, p := range series {
		if p.Value > peak {
			peak = p.Value
		}
	}
	if peak <= 2 {
		t.Errorf("replica series never rose above the initial count (peak %.0f)", peak)
	}
	if got := fmt.Sprint(res.Traffic.Services[0].ScaleUps); got == "0" {
		t.Error("per-service scale-up count is zero despite fleet scale-ups")
	}
}
