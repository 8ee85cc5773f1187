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

// TestDecisionTraceCausalOrder asserts the colocation decision sequence
// the span log must tell: the granted-sibling baseline, a VPI breach
// revoking a sibling, and the saturated pool expanding — in causal
// sim-time order — and that the metrics agree with the daemon's counters.
func TestDecisionTraceCausalOrder(t *testing.T) {
	set := telemetry.NewSet()
	d := startTracedColocation(t, set)

	spans := set.Spans.Snapshot()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].StartNs < spans[i-1].StartNs {
			t.Fatalf("spans out of sim-time order at %d: %d after %d",
				i, spans[i].StartNs, spans[i-1].StartNs)
		}
	}
	if spans[0].Kind != telemetry.SpanSiblingBorrow {
		t.Fatalf("span log opens with %v, want the granted-sibling baseline", spans[0].Kind)
	}

	revokeAt, expandAt := -1, -1
	for i, s := range spans {
		if revokeAt < 0 && s.Kind == telemetry.SpanMaskDecision && s.Name == "revoke-sibling" {
			revokeAt = i
		}
		if expandAt < 0 && s.Kind == telemetry.SpanPoolExpand {
			expandAt = i
		}
	}
	if revokeAt < 0 {
		t.Fatal("no revoke-sibling mask decision span")
	}
	if expandAt < 0 {
		t.Fatal("no pool-expand span")
	}
	if expandAt <= revokeAt {
		t.Fatalf("pool expansion (index %d) did not follow the revocation (index %d)",
			expandAt, revokeAt)
	}

	// The revocation must carry the observation that fired it.
	rev := spans[revokeAt]
	if rev.Value != d.cfg.E {
		t.Fatalf("revocation threshold = %v, want E = %v", rev.Value, d.cfg.E)
	}
	if rev.CPU < 0 {
		t.Fatalf("revocation not stamped with a CPU: %+v", rev)
	}
	est := spanByID(spans, rev.Parent)
	if est == nil || est.Kind != telemetry.SpanVPIEstimate {
		t.Fatalf("revocation parent is %+v, want a VPI estimate", est)
	}
	if est.Value < rev.Value {
		t.Fatalf("revocation VPI %v below its own threshold %v", est.Value, rev.Value)
	}
	if exp := spans[expandAt]; exp.Value <= thresholdT {
		t.Fatalf("expansion at per-CPU usage %v, want above T = %v", exp.Value, thresholdT)
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
