package core

import (
	"testing"

	"github.com/holmes-colocation/holmes/internal/telemetry"
)

// findSpan returns the first span of the given kind, or nil.
func findSpan(spans []telemetry.Span, kind telemetry.SpanKind) *telemetry.Span {
	for i := range spans {
		if spans[i].Kind == kind {
			return &spans[i]
		}
	}
	return nil
}

func spanByID(spans []telemetry.Span, id uint64) *telemetry.Span {
	for i := range spans {
		if spans[i].ID == id {
			return &spans[i]
		}
	}
	return nil
}

// TestDaemonSpansCausalChain drives the canonical colocation scenario and
// checks the decision-chain spans tell the full causal story: a counter
// sample fed a VPI estimate, the estimate drove a mask decision, and a
// cgroupfs write applied a decision.
func TestDaemonSpansCausalChain(t *testing.T) {
	set := telemetry.NewSet()
	startTracedColocation(t, set)
	spans := set.Spans.Snapshot()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}

	var revoke *telemetry.Span
	for i := range spans {
		if spans[i].Kind == telemetry.SpanMaskDecision && spans[i].Name == "revoke-sibling" {
			revoke = &spans[i]
			break
		}
	}
	if revoke == nil {
		t.Fatal("no revoke-sibling mask decision span")
	}
	est := spanByID(spans, revoke.Parent)
	if est == nil || est.Kind != telemetry.SpanVPIEstimate {
		t.Fatalf("mask decision parent is %+v, want a VPI estimate", est)
	}
	if est.Value < revoke.Value {
		t.Fatalf("revoking VPI %v below threshold %v", est.Value, revoke.Value)
	}
	sample := spanByID(spans, est.Parent)
	if sample == nil || sample.Kind != telemetry.SpanCounterSample {
		t.Fatalf("VPI estimate parent is %+v, want a counter sample", sample)
	}
	if sample.CPU != revoke.CPU {
		t.Fatalf("chain changed CPU: sample on %d, decision on %d", sample.CPU, revoke.CPU)
	}

	// The cgroupfs write that applies a decision is parented onto it.
	write := findSpan(spans, telemetry.SpanCgroupWrite)
	if write == nil {
		t.Fatal("no cgroup write span")
	}
	if write.Parent != 0 {
		cause := spanByID(spans, write.Parent)
		if cause != nil {
			switch cause.Kind {
			case telemetry.SpanMaskDecision, telemetry.SpanPoolExpand:
			default:
				t.Fatalf("cgroup write parented to %v, want a decision", cause.Kind)
			}
		}
	}

	// The interference scenario revokes a sibling, so at least one borrow
	// interval must have closed; the baseline grants leave open ones too.
	var closed, open bool
	for _, s := range spans {
		if s.Kind != telemetry.SpanSiblingBorrow {
			continue
		}
		if s.EndNs >= 0 {
			closed = true
		} else {
			open = true
		}
	}
	if !closed {
		t.Fatal("no closed sibling-borrow interval despite a revocation")
	}
	_ = open

	// The saturated pool expands; the expansion is in the timeline.
	if findSpan(spans, telemetry.SpanPoolExpand) == nil {
		t.Fatal("no pool-expand span")
	}
	for _, s := range spans {
		if s.Node != 0 {
			t.Fatalf("default SpanNode not stamped: %+v", s)
		}
	}
}

// TestDaemonSpanCostIndependentOfRecorder pins the determinism contract:
// the modeled telemetry cost (and therefore the whole simulation) is
// identical whether or not a span recorder is attached, because span cost
// is keyed off the telemetry set alone.
func TestDaemonSpanCostIndependentOfRecorder(t *testing.T) {
	withRec := telemetry.NewSet()
	d1 := startTracedColocation(t, withRec)

	withoutRec := telemetry.NewSet()
	withoutRec.Spans = nil
	d2 := startTracedColocation(t, withoutRec)

	if withRec.Spans.Total() == 0 {
		t.Fatal("recorder attached but no spans recorded")
	}
	if d1.TelemetryCPUTimeNs() != d2.TelemetryCPUTimeNs() {
		t.Fatalf("telemetry cost depends on recorder: %v vs %v",
			d1.TelemetryCPUTimeNs(), d2.TelemetryCPUTimeNs())
	}
	s1, s2 := d1.Snapshot(), d2.Snapshot()
	if s1 != s2 {
		t.Fatalf("daemon behavior depends on recorder:\n%+v\n%+v", s1, s2)
	}
}

// TestDaemonExplicitSpanRecorder checks Config.Spans wins over the set's
// recorder and works with telemetry fully disabled (recording is pure
// observation: zero modeled cost without a set).
func TestDaemonExplicitSpanRecorder(t *testing.T) {
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

	rec := telemetry.NewSpanRecorder(256)
	cfg := testDaemonConfig()
	cfg.DaemonCPU = 15
	cfg.Spans = rec
	cfg.SpanNode = 3
	d, err := Start(k, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	svc := k.Spawn("redis", 4)
	if err := d.RegisterLC(svc.PID); err != nil {
		t.Fatal(err)
	}
	for _, th := range svc.Threads() {
		chain(th, lcCost())
	}
	m.RunFor(60_000_000)

	if rec.Total() == 0 {
		t.Fatal("explicit recorder received no spans")
	}
	for _, s := range rec.Snapshot() {
		if s.Node != 3 {
			t.Fatalf("span not stamped with SpanNode: %+v", s)
		}
	}
	if d.TelemetryCPUTimeNs() != 0 {
		t.Fatalf("span recording charged cost without a telemetry set: %v",
			d.TelemetryCPUTimeNs())
	}
}
