package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestSpanRecorderAssignsSequentialIDs(t *testing.T) {
	r := NewSpanRecorder(8)
	a := r.Add(Span{Kind: SpanPodAdmit, StartNs: 10, EndNs: 20, Node: -1, CPU: -1})
	b := r.Add(Span{Kind: SpanPodPlace, Parent: a, StartNs: 20, EndNs: 30, Node: 0, CPU: -1})
	if a != 1 || b != 2 {
		t.Fatalf("ids = %d, %d; want 1, 2", a, b)
	}
	spans := r.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("snapshot has %d spans, want 2", len(spans))
	}
	if spans[1].Parent != a {
		t.Fatalf("parent link lost: %+v", spans[1])
	}
}

func TestSpanRecorderStartFinish(t *testing.T) {
	r := NewSpanRecorder(4)
	id := r.Start(Span{Kind: SpanPodRun, StartNs: 100, Node: 1, CPU: -1})
	if got := r.Snapshot()[0].EndNs; got != -1 {
		t.Fatalf("open span EndNs = %d, want -1", got)
	}
	r.Finish(id, 500)
	s := r.Snapshot()[0]
	if s.EndNs != 500 || s.DurationNs() != 400 {
		t.Fatalf("finished span = %+v", s)
	}
	// Finishing an unknown or zero ID must be harmless.
	r.Finish(0, 1)
	r.Finish(99, 1)
}

func TestSpanRecorderRingOverwrites(t *testing.T) {
	r := NewSpanRecorder(3)
	for i := 0; i < 5; i++ {
		r.Add(Span{Kind: SpanPodAdmit, StartNs: int64(i)})
	}
	if r.Total() != 5 || r.Dropped() != 2 {
		t.Fatalf("total %d dropped %d, want 5 and 2", r.Total(), r.Dropped())
	}
	spans := r.Snapshot()
	if len(spans) != 3 || spans[0].ID != 3 || spans[2].ID != 5 {
		t.Fatalf("snapshot = %+v", spans)
	}
	// Finish must still find the newest span after wraparound.
	id := r.Start(Span{Kind: SpanPodRun, StartNs: 9})
	r.Finish(id, 11)
	spans = r.Snapshot()
	if got := spans[len(spans)-1]; got.EndNs != 11 {
		t.Fatalf("post-wrap finish lost: %+v", got)
	}
}

func TestSpanRecorderNilSafe(t *testing.T) {
	var r *SpanRecorder
	if id := r.Add(Span{}); id != 0 {
		t.Fatalf("nil recorder returned id %d", id)
	}
	if id := r.Start(Span{}); id != 0 {
		t.Fatalf("nil recorder returned id %d", id)
	}
	r.Finish(1, 2)
	if r.Snapshot() != nil || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder is not empty")
	}
}

// chainSpans builds a pod eviction->reschedule causal chain like the
// cluster control plane records.
func chainSpans() []Span {
	r := NewSpanRecorder(64)
	admit := r.Add(Span{Kind: SpanPodAdmit, StartNs: 0, EndNs: 1e6, Node: -1, CPU: -1, Name: "batch-001"})
	place := r.Add(Span{Kind: SpanPodPlace, Parent: admit, StartNs: 1e6, EndNs: 2e6, Node: -1, CPU: -1, Name: "batch-001", Detail: "node 2"})
	run := r.Add(Span{Kind: SpanPodRun, Parent: place, StartNs: 2e6, EndNs: 50e6, Node: -1, CPU: -1, Name: "batch-001"})
	quar := r.Add(Span{Kind: SpanPodQuarantine, Parent: run, StartNs: 40e6, EndNs: 50e6, Node: -1, CPU: -1, Name: "batch-001", Value: 31.5})
	evict := r.Add(Span{Kind: SpanPodEvict, Parent: quar, StartNs: 50e6, EndNs: 51e6, Node: -1, CPU: -1, Name: "batch-001"})
	req := r.Add(Span{Kind: SpanPodRequeue, Parent: evict, StartNs: 51e6, EndNs: 100e6, Node: -1, CPU: -1, Name: "batch-001"})
	r.Add(Span{Kind: SpanPodReschedule, Parent: req, StartNs: 100e6, EndNs: 101e6, Node: -1, CPU: -1, Name: "batch-001", Detail: "node 0"})
	return r.Snapshot()
}

func TestWriteChromeTraceValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, chainSpans()); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported trace fails its own schema: %v", err)
	}
	out := buf.String()
	for _, want := range []string{`"traceEvents"`, `"ph":"X"`, `"ph":"M"`,
		"control-plane", "PodEvict batch-001", `"parent"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestValidateChromeTraceRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":       `{`,
		"no traceEvents": `{"other": []}`,
		"missing ph":     `{"traceEvents": [{"name": "x", "pid": 1, "tid": 1}]}`,
		"missing dur":    `{"traceEvents": [{"name": "x", "ph": "X", "ts": 1, "pid": 1, "tid": 1}]}`,
		"float pid":      `{"traceEvents": [{"name": "x", "ph": "M", "pid": 1.5, "tid": 1}]}`,
		"bad phase":      `{"traceEvents": [{"name": "x", "ph": "Q", "pid": 1, "tid": 1}]}`,
	}
	for name, doc := range cases {
		if err := ValidateChromeTrace([]byte(doc)); err == nil {
			t.Errorf("%s: validator accepted %s", name, doc)
		}
	}
}

func TestWriteSpansJSONL(t *testing.T) {
	var buf bytes.Buffer
	spans := chainSpans()
	if err := WriteSpansJSONL(&buf, spans); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(spans) {
		t.Fatalf("%d lines for %d spans", len(lines), len(spans))
	}
	if !strings.Contains(lines[0], `"kind":"PodAdmit"`) {
		t.Fatalf("first line = %s", lines[0])
	}
}

func TestRenderSpanTree(t *testing.T) {
	out := RenderSpanTree(chainSpans())
	// The whole lifecycle chain must nest one level per stage.
	for _, want := range []string{
		"PodAdmit batch-001",
		"\n  PodPlace batch-001",
		"\n    PodRun batch-001",
		"\n      PodQuarantine batch-001",
		"\n        PodEvict batch-001",
		"\n          PodRequeue batch-001",
		"\n            PodReschedule batch-001",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree missing %q:\n%s", want, out)
		}
	}
	// An orphaned parent reference renders as a root, not a panic.
	orphan := []Span{{ID: 7, Parent: 3, Kind: SpanPodRun, StartNs: 1, EndNs: 2, Node: 0, CPU: -1}}
	if got := RenderSpanTree(orphan); !strings.HasPrefix(got, "PodRun") {
		t.Fatalf("orphan tree = %q", got)
	}
}
