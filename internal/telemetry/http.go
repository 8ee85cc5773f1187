package telemetry

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// Set bundles the registry and span recorder one daemon (or one
// experiment run) records into, plus a small info map for static facts
// (configuration, topology) worth showing on the debug endpoint.
type Set struct {
	Registry *Registry
	Spans    *SpanRecorder

	mu   sync.Mutex
	info map[string]string
}

// NewSet creates a registry plus a span recorder with the default ring.
func NewSet() *Set {
	return &Set{
		Registry: NewRegistry(),
		Spans:    NewSpanRecorder(DefaultSpanRingSize),
		info:     map[string]string{},
	}
}

// PublishInfo records a static key=value fact for /debug/holmes. Safe on
// a nil receiver.
func (s *Set) PublishInfo(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.info == nil {
		s.info = map[string]string{}
	}
	s.info[key] = value
	s.mu.Unlock()
}

// Info returns a copy of the published facts.
func (s *Set) Info() map[string]string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.info))
	for k, v := range s.info {
		out[k] = v
	}
	return out
}

// Handler serves the set over HTTP:
//
//	/metrics      Prometheus text exposition
//	/spans        JSON causal spans (newest last); ?kind=MaskDecision
//	              filters, ?n=100 keeps only the newest n, and
//	              ?format=chrome exports Chrome trace-event JSON loadable
//	              in Perfetto
//	/timeline     the span log rendered as an indented causal text tree
//	/debug/holmes JSON bundle: info, metric snapshot, span totals
//
// The handler is safe to serve while the simulation records concurrently:
// metric reads are atomic and the span ring snapshot takes its own lock.
func (s *Set) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/spans", s.serveSpans)
	mux.HandleFunc("/timeline", s.serveTimeline)
	mux.HandleFunc("/debug/holmes", s.serveDebug)
	return mux
}

func (s *Set) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WritePrometheus(w, s.Registry)
}

func (s *Set) serveSpans(w http.ResponseWriter, req *http.Request) {
	spans := s.Spans.Snapshot()
	if kind := req.URL.Query().Get("kind"); kind != "" {
		kept := spans[:0]
		for _, sp := range spans {
			if sp.Kind.String() == kind {
				kept = append(kept, sp)
			}
		}
		spans = kept
	}
	if nStr := req.URL.Query().Get("n"); nStr != "" {
		if n, err := strconv.Atoi(nStr); err == nil && n >= 0 && n < len(spans) {
			spans = spans[len(spans)-n:]
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if req.URL.Query().Get("format") == "chrome" {
		_ = WriteChromeTrace(w, spans)
		return
	}
	_ = json.NewEncoder(w).Encode(struct {
		Total   uint64 `json:"total"`
		Dropped uint64 `json:"dropped"`
		Spans   []Span `json:"spans"`
	}{
		Total:   s.Spans.Total(),
		Dropped: s.Spans.Dropped(),
		Spans:   spans,
	})
}

func (s *Set) serveTimeline(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(RenderSpanTree(s.Spans.Snapshot())))
}

func (s *Set) serveDebug(w http.ResponseWriter, _ *http.Request) {
	byKind := map[string]int{}
	for _, sp := range s.Spans.Snapshot() {
		byKind[sp.Kind.String()]++
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Info       map[string]string `json:"info,omitempty"`
		Metrics    []MetricSnapshot  `json:"metrics"`
		SpanTotal  uint64            `json:"span_total"`
		SpanCounts map[string]int    `json:"recent_span_counts"`
	}{
		Info:       s.Info(),
		Metrics:    s.Registry.Snapshot(),
		SpanTotal:  s.Spans.Total(),
		SpanCounts: byKind,
	})
}
