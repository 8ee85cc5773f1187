package telemetry

import "testing"

// BenchmarkTelemetryRecord measures the full per-tick record path the
// daemon exercises: one counter bump, one gauge store, one histogram
// observation, and one decision span into the recorder's ring. The
// acceptance bar is 0 B/op — handles are pre-resolved at registration
// time so the hot path is pure atomics plus a ring slot store.
func BenchmarkTelemetryRecord(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("holmes_invocations_total", "ticks")
	g := r.Gauge("holmes_reserved_cpus", "pool size")
	h := r.Histogram("holmes_vpi", "observed VPI", 1, 1000, 5)
	rec := NewSpanRecorder(DefaultSpanRingSize)
	sp := Span{Kind: SpanMaskDecision, CPU: 3, Name: "revoke-sibling", Value: 40}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(float64(i & 15))
		h.Observe(float64(i&1023) + 1)
		sp.StartNs, sp.EndNs = int64(i), int64(i)
		rec.Add(sp)
	}
}

// BenchmarkCounterInc isolates the cheapest record op for reference.
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
