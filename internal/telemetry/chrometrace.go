package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Chrome trace-event export: the JSON object format Perfetto and
// chrome://tracing load. Each span becomes one "X" (complete) event with
// microsecond timestamps; processes map to cluster nodes (pid 0 is the
// control plane) and threads to logical CPUs (tid 0 for node-level
// spans). Metadata ("M") events name the processes so the timeline reads
// "node 3", not "pid 4".

// chromeEvent is one trace-event record. Args carries the span fields a
// timeline click should show.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromePID maps a span's node to a trace process ID: the control plane
// (node -1) is pid 0, node i is pid i+1.
func chromePID(node int) int { return node + 1 }

func chromeProcessName(node int) string {
	if node < 0 {
		return "control-plane"
	}
	return fmt.Sprintf("node %d", node)
}

// WriteChromeTrace writes spans as a Chrome trace-event JSON object,
// loadable in Perfetto. Spans still open (EndNs -1) are exported with a
// minimal duration so they stay visible on the timeline.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	tr := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: []chromeEvent{}}
	procs := map[int]bool{}
	for _, s := range spans {
		pid := chromePID(s.Node)
		if !procs[pid] {
			procs[pid] = true
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "process_name", Ph: "M", PID: pid, TID: 0,
				Args: map[string]any{"name": chromeProcessName(s.Node)},
			})
		}
		durNs := s.DurationNs()
		if durNs <= 0 {
			durNs = 100 // open or instantaneous: keep it clickable
		}
		name := s.Kind.String()
		if s.Name != "" {
			name += " " + s.Name
		}
		ev := chromeEvent{
			Name: name,
			Cat:  spanCategory(s.Kind),
			Ph:   "X",
			TS:   float64(s.StartNs) / 1e3,
			Dur:  float64(durNs) / 1e3,
			PID:  pid,
			TID:  s.CPU + 1,
			Args: map[string]any{"id": s.ID, "kind": s.Kind.String()},
		}
		if s.Parent != 0 {
			ev.Args["parent"] = s.Parent
		}
		if s.Detail != "" {
			ev.Args["detail"] = s.Detail
		}
		if s.Value != 0 {
			ev.Args["value"] = s.Value
		}
		tr.TraceEvents = append(tr.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// spanCategory groups kinds into Perfetto track categories.
func spanCategory(k SpanKind) string {
	switch k {
	case SpanCounterSample, SpanVPIEstimate, SpanMaskDecision, SpanCgroupWrite,
		SpanSiblingBorrow, SpanPoolExpand, SpanSafeMode:
		return "daemon"
	case SpanNodeCrash, SpanNodeReboot:
		return "fault"
	case SpanReplicaScaleUp, SpanReplicaScaleDown, SpanReplicaRetire:
		return "autoscaler"
	case SpanBreakerOpen:
		return "resilience"
	}
	return "pod"
}

// WriteSpansJSONL writes each span as one JSON line.
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// ValidateChromeTrace checks that data is a well-formed Chrome
// trace-event JSON object: a traceEvents array whose entries carry the
// required fields for their phase. It is the schema gate `make obs-smoke`
// runs over exported traces.
func ValidateChromeTrace(data []byte) error {
	var tr struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		return fmt.Errorf("telemetry: trace is not valid JSON: %w", err)
	}
	if tr.TraceEvents == nil {
		return fmt.Errorf("telemetry: trace has no traceEvents array")
	}
	for i, ev := range tr.TraceEvents {
		var ph, name string
		if err := requireString(ev, "ph", &ph); err != nil {
			return fmt.Errorf("telemetry: event %d: %w", i, err)
		}
		if err := requireString(ev, "name", &name); err != nil {
			return fmt.Errorf("telemetry: event %d: %w", i, err)
		}
		for _, key := range []string{"pid", "tid"} {
			var n float64
			raw, ok := ev[key]
			if !ok {
				return fmt.Errorf("telemetry: event %d (%s): missing %q", i, name, key)
			}
			if err := json.Unmarshal(raw, &n); err != nil || n != float64(int(n)) {
				return fmt.Errorf("telemetry: event %d (%s): %q is not an integer", i, name, key)
			}
		}
		switch ph {
		case "M": // metadata: no timestamp required
		case "X":
			for _, key := range []string{"ts", "dur"} {
				var n float64
				raw, ok := ev[key]
				if !ok {
					return fmt.Errorf("telemetry: event %d (%s): complete event missing %q", i, name, key)
				}
				if err := json.Unmarshal(raw, &n); err != nil || n < 0 {
					return fmt.Errorf("telemetry: event %d (%s): %q is not a non-negative number", i, name, key)
				}
			}
		default:
			return fmt.Errorf("telemetry: event %d (%s): unsupported phase %q", i, name, ph)
		}
	}
	return nil
}

func requireString(ev map[string]json.RawMessage, key string, out *string) error {
	raw, ok := ev[key]
	if !ok {
		return fmt.Errorf("missing %q", key)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%q is not a string", key)
	}
	return nil
}

// RenderSpanTree renders spans as an indented causal tree, children under
// their parents, siblings in start order. Orphans (parent overwritten by
// ring wraparound or recorded elsewhere) render as roots. The output is
// deterministic for a deterministic span set, which is what the golden
// span-tree test pins.
func RenderSpanTree(spans []Span) string {
	children := map[uint64][]int{}
	present := map[uint64]bool{}
	for _, s := range spans {
		present[s.ID] = true
	}
	var roots []int
	for i, s := range spans {
		if s.Parent != 0 && present[s.Parent] {
			children[s.Parent] = append(children[s.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	order := func(idx []int) {
		sort.SliceStable(idx, func(a, b int) bool {
			sa, sb := spans[idx[a]], spans[idx[b]]
			if sa.StartNs != sb.StartNs {
				return sa.StartNs < sb.StartNs
			}
			if sa.Node != sb.Node {
				return sa.Node < sb.Node
			}
			return sa.ID < sb.ID
		})
	}
	order(roots)
	for _, c := range children {
		order(c)
	}
	var b strings.Builder
	var walk func(i, depth int)
	walk = func(i, depth int) {
		s := spans[i]
		fmt.Fprintf(&b, "%s%s", strings.Repeat("  ", depth), s.Kind)
		if s.Name != "" {
			fmt.Fprintf(&b, " %s", s.Name)
		}
		if s.Node >= 0 {
			fmt.Fprintf(&b, " node=%d", s.Node)
		}
		if s.CPU >= 0 {
			fmt.Fprintf(&b, " cpu=%d", s.CPU)
		}
		if s.EndNs < 0 {
			fmt.Fprintf(&b, " [%.3fms, open)", float64(s.StartNs)/1e6)
		} else {
			fmt.Fprintf(&b, " [%.3fms +%.3fms]",
				float64(s.StartNs)/1e6, float64(s.DurationNs())/1e6)
		}
		if s.Detail != "" {
			fmt.Fprintf(&b, " (%s)", s.Detail)
		}
		b.WriteByte('\n')
		for _, c := range children[s.ID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}
