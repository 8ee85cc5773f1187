package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("holmes_invocations_total", "ticks")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	g := r.Gauge("holmes_reserved_cpus", "pool size")
	g.Set(4)
	g.Add(2)
	g.Add(-1)
	if g.Value() != 5 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var rec *SpanRecorder
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	rec.Add(Span{Kind: SpanMaskDecision})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil handles reported values")
	}
	if rec.Snapshot() != nil {
		t.Fatal("nil recorder returned spans")
	}
	var s *Set
	s.PublishInfo("k", "v") // must not panic
}

func TestSameNameLabelsSameHandle(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", L("cpu", "3"), L("kind", "vpi"))
	b := r.Counter("x_total", "", L("kind", "vpi"), L("cpu", "3")) // order-insensitive
	if a != b {
		t.Fatal("same name+labels resolved to different handles")
	}
	other := r.Counter("x_total", "", L("cpu", "4"), L("kind", "vpi"))
	if a == other {
		t.Fatal("different labels shared a handle")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("conflicted", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("conflicted", "")
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_ns", "", 100, 1e9, 30)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 1000) // 1us .. 1ms uniform
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.5)
	if p50 < 300_000 || p50 > 700_000 {
		t.Fatalf("p50 = %v, want ~500000", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 900_000 || p99 > 1_100_000 {
		t.Fatalf("p99 = %v, want ~990000", p99)
	}
	if p99 <= p50 {
		t.Fatal("quantiles not monotone")
	}
	wantSum := 0.0
	for i := 1; i <= 1000; i++ {
		wantSum += float64(i) * 1000
	}
	if math.Abs(h.Sum()-wantSum) > 1 {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("depth", "", 1, 100, 10)
	h.Observe(0)    // below min -> first bucket
	h.Observe(5000) // above max -> last bucket
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	s := h.Snapshot()
	if s.Buckets[0].Count != 1 || s.Buckets[len(s.Buckets)-1].Count != 1 {
		t.Fatal("out-of-range observations not clamped into edge buckets")
	}
}

func TestGatherOrderStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "")
	r.Gauge("aaa", "")
	r.Counter("mmm_total", "", L("cpu", "1"))
	r.Counter("mmm_total", "", L("cpu", "0"))
	fams := r.Gather()
	if len(fams) != 3 {
		t.Fatalf("families = %d", len(fams))
	}
	if fams[0].Name != "aaa" || fams[1].Name != "mmm_total" || fams[2].Name != "zzz_total" {
		t.Fatalf("family order: %s %s %s", fams[0].Name, fams[1].Name, fams[2].Name)
	}
	mm := fams[1]
	if mm.Series[0].Labels[0].Value != "0" || mm.Series[1].Labels[0].Value != "1" {
		t.Fatal("series not sorted by label signature")
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	h := r.Histogram("v", "", 1, 1e6, 20)
	g := r.Gauge("g", "")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i + 1))
				g.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d", h.Count())
	}
	if g.Value() != workers*per {
		t.Fatalf("gauge = %v", g.Value())
	}
}

func TestSnapshotJSONForm(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", L("kind", "x")).Add(7)
	h := r.Histogram("h", "", 1, 1e6, 20)
	h.Observe(100)
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	if snap[0].Name != "c_total" || snap[0].Value != 7 || snap[0].Labels["kind"] != "x" {
		t.Fatalf("counter snapshot: %+v", snap[0])
	}
	if snap[1].Count != 1 || snap[1].P50 <= 0 {
		t.Fatalf("histogram snapshot: %+v", snap[1])
	}
}

// TestRecordPathDoesNotAllocate is the acceptance-criteria guard in test
// form (BenchmarkTelemetryRecord is the benchmark form): the §6.6 overhead
// envelope leaves no room for per-tick garbage.
func TestRecordPathDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", 1, 1e9, 30)
	rec := NewSpanRecorder(64)
	sp := Span{Kind: SpanMaskDecision, StartNs: 1, EndNs: 1, CPU: 3, Name: "revoke-sibling", Value: 40}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(4)
		h.Observe(123456)
		rec.Add(sp)
	})
	if allocs != 0 {
		t.Fatalf("record path allocates %.1f objects/op, want 0", allocs)
	}
}
