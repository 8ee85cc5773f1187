// Package telemetry is the Holmes daemon's observability subsystem: a
// lock-cheap metrics registry (counters, gauges, log-bucketed histograms),
// a causal span recorder that is the daemon's decision log, and exposition
// in Prometheus text format and JSON over net/http.
//
// The paper's central claims are timing claims — reaction within 50-100 µs
// (Table 4) at 1.3-3% CPU cost (§6.6) — so the record path is built to sit
// on the daemon's 100 µs tick without distorting it: handles are resolved
// once at registration (the only path that takes a lock or allocates) and
// every subsequent record is a handful of atomic operations with zero heap
// allocations. All handles are nil-safe: recording through a nil *Counter,
// *Gauge, *Histogram or *SpanRecorder is a no-op, so instrumented code does
// not branch on whether telemetry is enabled.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the metric families a Registry holds.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Label is one name=value dimension of a metric series.
type Label struct {
	Key   string
	Value string
}

// Labels is an ordered label set. Registration sorts it by key, so two
// lookups with the same pairs in any order resolve to the same series.
type Labels []Label

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing integer metric. The record path
// (Inc/Add) is one atomic add.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are a programming error but not checked on
// the hot path). Safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a floating-point metric that can go up and down. Set/Add are
// atomic on the float's bit pattern.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta with a CAS loop. Safe on a nil receiver.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram records observations into logarithmically spaced buckets, the
// same layout as stats.Histogram but with atomic bucket counters so the
// daemon can record while an HTTP scraper reads. Values below the range
// clamp into the first bucket; values at or above it clamp into the last
// (underflow/overflow never lose observations, matching stats.Histogram).
type Histogram struct {
	min          float64
	max          float64
	perDecade    int
	logMin       float64
	invLogBucket float64
	counts       []atomic.Int64
	total        atomic.Int64
	sumBits      atomic.Uint64 // float64 accumulated via CAS
}

func newHistogram(min, max float64, perDecade int) *Histogram {
	if min <= 0 || max <= min || perDecade <= 0 {
		panic("telemetry: invalid histogram bounds")
	}
	decades := math.Log10(max / min)
	n := int(math.Ceil(decades * float64(perDecade)))
	return &Histogram{
		min:          min,
		max:          max,
		perDecade:    perDecade,
		logMin:       math.Log10(min),
		invLogBucket: float64(perDecade),
		counts:       make([]atomic.Int64, n),
	}
}

// Observe records one observation. Zero allocations; safe on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	if v >= h.min {
		i = int((math.Log10(v) - h.logMin) * h.invLogBucket)
		if i >= len(h.counts) {
			i = len(h.counts) - 1
		}
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveN records the value v, n times, as one bucket update — the bulk
// form batched recorders (e.g. the kernel replaying skipped idle ticks)
// use. Equivalent to calling Observe(v) n times. Safe on nil.
func (h *Histogram) ObserveN(v float64, n int64) {
	if h == nil || n <= 0 {
		return
	}
	i := 0
	if v >= h.min {
		i = int((math.Log10(v) - h.logMin) * h.invLogBucket)
		if i >= len(h.counts) {
			i = len(h.counts) - 1
		}
	}
	h.counts[i].Add(n)
	h.total.Add(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Bucket is one histogram bucket in a snapshot: Count observations with
// values below Upper (non-cumulative).
type Bucket struct {
	Upper float64
	Count int64
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Count   int64
	Sum     float64
	Buckets []Bucket
}

// Snapshot copies the histogram's state. Buckets with zero counts are
// included so cumulative exposition stays well-formed.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Count:   h.total.Load(),
		Sum:     math.Float64frombits(h.sumBits.Load()),
		Buckets: make([]Bucket, len(h.counts)),
	}
	for i := range h.counts {
		s.Buckets[i] = Bucket{
			Upper: math.Pow(10, h.logMin+float64(i+1)/h.invLogBucket),
			Count: h.counts[i].Load(),
		}
	}
	return s
}

// Quantile returns the approximate q-th quantile (q in [0,1]) with linear
// interpolation inside the containing bucket.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	lower := 0.0
	for i, b := range s.Buckets {
		if i > 0 {
			lower = s.Buckets[i-1].Upper
		}
		if b.Count == 0 {
			continue
		}
		prev := cum
		cum += b.Count
		if cum >= target {
			frac := float64(target-prev) / float64(b.Count)
			return lower + (b.Upper-lower)*frac
		}
	}
	return s.Buckets[len(s.Buckets)-1].Upper
}

// metric is one registered series inside a family.
type metric struct {
	labels  Labels
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name    string
	help    string
	kind    Kind
	series  []*metric
	histMin float64
	histMax float64
	histPD  int
}

// Registry holds metric families keyed by name and series keyed by
// name+labels. Registration takes a mutex and may allocate; the returned
// handles never do.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	byKey    map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: map[string]*family{},
		byKey:    map[string]*metric{},
	}
}

// seriesKey builds the map key for name+labels. Labels are sorted in
// place, which also canonicalizes the order Gather exposes.
func seriesKey(name string, labels Labels) string {
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('\xff')
		b.WriteString(l.Key)
		b.WriteByte('\xfe')
		b.WriteString(l.Value)
	}
	return b.String()
}

// lookup finds or creates the series for name+labels, enforcing that a
// name keeps one kind for its whole life (a programming error otherwise,
// reported by panic like the machine constructor does). The handle is
// created under the lock so concurrent registrations stay race-free.
func (r *Registry) lookup(name, help string, kind Kind, labels Labels) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := seriesKey(name, labels)
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %v and %v", name, f.kind, kind))
	}
	if m, ok := r.byKey[key]; ok {
		return m
	}
	m := &metric{labels: append(Labels(nil), labels...)}
	switch kind {
	case KindCounter:
		m.counter = &Counter{}
	case KindGauge:
		m.gauge = &Gauge{}
	}
	f.series = append(f.series, m)
	r.byKey[key] = m
	return m
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, KindCounter, labels).counter
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, KindGauge, labels).gauge
}

// Histogram returns the histogram for name+labels, creating it on first
// use with log buckets spanning [min, max) at perDecade buckets per power
// of ten. Every series of one family shares the first registration's
// layout (mismatched layouts panic — they could not be merged or exposed).
func (r *Registry) Histogram(name, help string, min, max float64, perDecade int, labels ...Label) *Histogram {
	r.mu.Lock()
	key := seriesKey(name, labels)
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: KindHistogram,
			histMin: min, histMax: max, histPD: perDecade}
		r.families[name] = f
	} else {
		if f.kind != KindHistogram {
			panic(fmt.Sprintf("telemetry: metric %q registered as %v and histogram", name, f.kind))
		}
		if f.histMin != min || f.histMax != max || f.histPD != perDecade {
			panic(fmt.Sprintf("telemetry: histogram %q re-registered with a different layout", name))
		}
	}
	if m, ok := r.byKey[key]; ok {
		r.mu.Unlock()
		return m.hist
	}
	m := &metric{labels: append(Labels(nil), labels...), hist: newHistogram(min, max, perDecade)}
	f.series = append(f.series, m)
	r.byKey[key] = m
	r.mu.Unlock()
	return m.hist
}

// SeriesSnapshot is one series inside a FamilySnapshot.
type SeriesSnapshot struct {
	Labels Labels
	Value  float64      // counter (as float) or gauge value
	Hist   HistSnapshot // histogram families only
}

// FamilySnapshot is a point-in-time copy of one metric family.
type FamilySnapshot struct {
	Name   string
	Help   string
	Kind   Kind
	Series []SeriesSnapshot
}

// Gather snapshots every family, sorted by name with series sorted by
// label signature — the stable order the exposition formats require.
func (r *Registry) Gather() []FamilySnapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	// Copy the series slices under the lock; the handles themselves are
	// safe to read afterwards (atomics).
	type famCopy struct {
		f      *family
		series []*metric
	}
	copies := make([]famCopy, len(fams))
	for i, f := range fams {
		copies[i] = famCopy{f: f, series: append([]*metric(nil), f.series...)}
	}
	r.mu.Unlock()

	sort.Slice(copies, func(i, j int) bool { return copies[i].f.name < copies[j].f.name })
	out := make([]FamilySnapshot, 0, len(copies))
	for _, fc := range copies {
		fs := FamilySnapshot{Name: fc.f.name, Help: fc.f.help, Kind: fc.f.kind}
		for _, m := range fc.series {
			ss := SeriesSnapshot{Labels: m.labels}
			switch fc.f.kind {
			case KindCounter:
				ss.Value = float64(m.counter.Value())
			case KindGauge:
				ss.Value = m.gauge.Value()
			case KindHistogram:
				ss.Hist = m.hist.Snapshot()
			}
			fs.Series = append(fs.Series, ss)
		}
		sort.Slice(fs.Series, func(i, j int) bool {
			return labelSig(fs.Series[i].Labels) < labelSig(fs.Series[j].Labels)
		})
		out = append(out, fs)
	}
	return out
}

func labelSig(labels Labels) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}
