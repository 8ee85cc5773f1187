package core

import (
	"testing"

	"github.com/holmes-colocation/holmes/internal/telemetry"
)

// startTracedColocation builds the canonical interference scenario with a
// telemetry set attached: a batch container exists before the daemon
// starts (so discovery happens at adoption), an LC service saturates the
// reserved CPUs, and batch work interferes on their siblings.
func startTracedColocation(t *testing.T, set *telemetry.Set) *Daemon {
	t.Helper()
	m, k, fs := newEnv()

	batch := k.Spawn("kmeans", 8)
	g, err := fs.Mkdir("/yarn/job_1/container_0")
	if err != nil {
		t.Fatal(err)
	}
	g.AddPid(batch.PID)
	for _, th := range batch.Threads() {
		chain(th, batchCost())
	}

	cfg := testDaemonConfig()
	cfg.DaemonCPU = 15
	cfg.Telemetry = set
	d, err := Start(k, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)

	// More hot service threads than reserved CPUs: saturates the pool so
	// it expands, with batch interference pushing VPI over E first.
	svc := k.Spawn("redis", 4)
	if err := d.RegisterLC(svc.PID); err != nil {
		t.Fatal(err)
	}
	for _, th := range svc.Threads() {
		chain(th, lcCost())
	}
	m.RunFor(60_000_000) // 60 ms
	return d
}

// TestDecisionTraceCausalOrder asserts the colocation event sequence the
// tracer must tell: discovery of the pre-existing batch container, the
// granted-sibling baseline, a VPI breach revoking a sibling, and the
// saturated pool expanding — in causal sim-time order.
func TestDecisionTraceCausalOrder(t *testing.T) {
	set := telemetry.NewSet()
	d := startTracedColocation(t, set)

	events := set.Tracer.Ring().Snapshot()
	if len(events) == 0 {
		t.Fatal("no events traced")
	}
	for i := 1; i < len(events); i++ {
		if events[i].TimeNs < events[i-1].TimeNs {
			t.Fatalf("events out of sim-time order at %d: %d after %d",
				i, events[i].TimeNs, events[i-1].TimeNs)
		}
	}

	first := map[telemetry.EventType]int{}
	for i, ev := range events {
		if _, seen := first[ev.Type]; !seen {
			first[ev.Type] = i
		}
	}
	chain := []telemetry.EventType{
		telemetry.BatchDiscovered,
		telemetry.SiblingGranted,
		telemetry.SiblingRevoked,
		telemetry.PoolExpanded,
	}
	for i, typ := range chain {
		idx, ok := first[typ]
		if !ok {
			t.Fatalf("no %v event in trace (have %v)", typ, first)
		}
		if i > 0 {
			prev := chain[i-1]
			if idx <= first[prev] {
				t.Fatalf("%v (index %d) did not follow %v (index %d)",
					typ, idx, prev, first[prev])
			}
		}
	}

	// The revocation must carry the observation that fired it.
	rev := events[first[telemetry.SiblingRevoked]]
	if rev.Threshold != d.cfg.E {
		t.Fatalf("revocation threshold = %v, want E = %v", rev.Threshold, d.cfg.E)
	}
	if rev.VPI < rev.Threshold {
		t.Fatalf("revocation VPI %v below its own threshold %v", rev.VPI, rev.Threshold)
	}
	if rev.CPU < 0 || rev.Core < 0 {
		t.Fatalf("revocation not stamped with a CPU/core: %+v", rev)
	}
	exp := events[first[telemetry.PoolExpanded]]
	if exp.Threshold != thresholdT {
		t.Fatalf("expansion threshold = %v, want T = %v", exp.Threshold, thresholdT)
	}

	// Metrics agree with the daemon's own counters.
	inv, dealloc, _, expand := d.Stats()
	r := set.Registry
	if got := r.Counter("holmes_invocations_total", "").Value(); got != inv {
		t.Fatalf("invocations metric %d != daemon %d", got, inv)
	}
	if got := r.Counter("holmes_deallocations_total", "").Value(); got != dealloc {
		t.Fatalf("deallocations metric %d != daemon %d", got, dealloc)
	}
	if got := r.Counter("holmes_expansions_total", "").Value(); got != expand {
		t.Fatalf("expansions metric %d != daemon %d", got, expand)
	}
	if r.Counter("holmes_batch_discovered_total", "").Value() == 0 {
		t.Fatal("batch discovery not counted")
	}
}

// TestDecisionTraceRingWraps drives the scenario with a tiny ring and
// checks that wrapping discards oldest events, never newest.
func TestDecisionTraceRingWraps(t *testing.T) {
	set := &telemetry.Set{Registry: telemetry.NewRegistry(), Tracer: telemetry.NewTracer(8)}
	startTracedColocation(t, set)

	ring := set.Tracer.Ring()
	if ring.Dropped() == 0 {
		t.Fatalf("ring never wrapped (total %d)", ring.Total())
	}
	events := ring.Snapshot()
	if len(events) != 8 {
		t.Fatalf("snapshot len = %d, want full ring of 8", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].TimeNs < events[i-1].TimeNs {
			t.Fatal("wrapped snapshot not oldest-first")
		}
	}
	// The survivors are the newest: everything retained happened after
	// the trace's midpoint worth of drops.
	if events[0].TimeNs == 0 && events[len(events)-1].TimeNs == 0 {
		t.Fatal("retained events look like the startup batch, not the newest")
	}
}

// TestTelemetryOverheadSplit checks the §6.6 accounting: recording cost
// is charged to the daemon and reported separately, and stays a small
// fraction of the daemon's own budget.
func TestTelemetryOverheadSplit(t *testing.T) {
	set := telemetry.NewSet()
	d := startTracedColocation(t, set)

	telNs := d.TelemetryCPUTimeNs()
	if telNs <= 0 {
		t.Fatal("telemetry cost not accounted")
	}
	total := d.CPUTimeNs()
	if telNs >= total {
		t.Fatalf("telemetry cost %v >= daemon total %v", telNs, total)
	}
	// The split also surfaces through Snapshot.
	snap := d.Snapshot()
	if snap.TelemetryCPUTimeNs != telNs {
		t.Fatalf("snapshot split %v != %v", snap.TelemetryCPUTimeNs, telNs)
	}
	if snap.Invocations == 0 || snap.Deallocations == 0 {
		t.Fatalf("snapshot counters empty: %+v", snap)
	}
	// Recording must stay well inside the daemon's own envelope: the
	// telemetry share is bounded by a tenth of the total.
	if telNs > total/10 {
		t.Fatalf("telemetry %v ns is more than 10%% of daemon %v ns", telNs, total)
	}
}

// TestTelemetryDisabledIsInert: without a set, no cost is accounted and
// the daemon behaves identically (the nil-handle no-op path).
func TestTelemetryDisabledIsInert(t *testing.T) {
	m, k, fs := newEnv()
	cfg := testDaemonConfig()
	cfg.DaemonCPU = 15
	d, err := Start(k, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	m.RunFor(10_000_000)
	if d.TelemetryCPUTimeNs() != 0 {
		t.Fatalf("disabled telemetry accounted %v ns", d.TelemetryCPUTimeNs())
	}
	if inv, _, _, _ := d.Stats(); inv == 0 {
		t.Fatal("daemon did not run")
	}
}
