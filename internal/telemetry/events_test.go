package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
)

func TestRingKeepsNewestOnWrap(t *testing.T) {
	ring := NewRing(4)
	for i := 0; i < 10; i++ {
		ring.Record(Event{TimeNs: int64(i), Type: MonitorSample})
	}
	got := ring.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(got))
	}
	// The newest 4 of 10 are 6,7,8,9, oldest-first.
	for i, ev := range got {
		if want := int64(6 + i); ev.TimeNs != want {
			t.Fatalf("snapshot[%d].TimeNs = %d, want %d", i, ev.TimeNs, want)
		}
	}
	if ring.Total() != 10 {
		t.Fatalf("total = %d", ring.Total())
	}
	if ring.Dropped() != 6 {
		t.Fatalf("dropped = %d", ring.Dropped())
	}
}

func TestRingPartialFill(t *testing.T) {
	ring := NewRing(8)
	ring.Record(Event{TimeNs: 1})
	ring.Record(Event{TimeNs: 2})
	got := ring.Snapshot()
	if len(got) != 2 || got[0].TimeNs != 1 || got[1].TimeNs != 2 {
		t.Fatalf("snapshot = %+v", got)
	}
	if ring.Dropped() != 0 {
		t.Fatalf("dropped = %d", ring.Dropped())
	}
}

func TestJSONLSinkWritesOneValidLinePerEvent(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := NewTracer(16)
	tr.AddSink(sink)
	tr.Emit(Event{TimeNs: 100, Type: BatchDiscovered, CPU: -1, Core: -1, PID: 42, Detail: "/yarn/job_1/container_0"})
	tr.Emit(Event{TimeNs: 200, Type: SiblingRevoked, CPU: 3, Core: 3, VPI: 55.5, Usage: 0.9, Threshold: 40})
	if sink.Count() != 2 {
		t.Fatalf("sink count = %d", sink.Count())
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]interface{}
	for sc.Scan() {
		var m map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d not valid JSON: %v", len(lines), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if lines[0]["type"] != "BatchDiscovered" || lines[0]["detail"] != "/yarn/job_1/container_0" {
		t.Fatalf("line 0 = %v", lines[0])
	}
	if lines[1]["type"] != "SiblingRevoked" || lines[1]["threshold"].(float64) != 40 {
		t.Fatalf("line 1 = %v", lines[1])
	}
	// Hot-path events omit cold fields entirely.
	if _, ok := lines[1]["detail"]; ok {
		t.Fatal("empty detail serialized")
	}
}

func TestCallbackSinkAndFanout(t *testing.T) {
	tr := NewTracer(4)
	var seen []EventType
	tr.AddSink(CallbackSink(func(ev Event) { seen = append(seen, ev.Type) }))
	tr.Emit(Event{Type: PoolExpanded})
	tr.Emit(Event{Type: LCExited})
	if len(seen) != 2 || seen[0] != PoolExpanded || seen[1] != LCExited {
		t.Fatalf("callback saw %v", seen)
	}
	// The built-in ring received the same events.
	if got := tr.Ring().Snapshot(); len(got) != 2 {
		t.Fatalf("ring has %d events", len(got))
	}
}

func TestEventTypeNames(t *testing.T) {
	want := map[EventType]string{
		SiblingGranted:  "SiblingGranted",
		SiblingRevoked:  "SiblingRevoked",
		PoolExpanded:    "PoolExpanded",
		LCRegistered:    "LCRegistered",
		LCExited:        "LCExited",
		BatchDiscovered: "BatchDiscovered",
		MonitorSample:   "MonitorSample",
		SafeModeEntered: "SafeModeEntered",
		SafeModeExited:  "SafeModeExited",
		RescanRepaired:  "RescanRepaired",
	}
	if len(want) != int(numEventTypes) {
		t.Fatalf("test covers %d of %d event types", len(want), numEventTypes)
	}
	for typ, name := range want {
		if typ.String() != name {
			t.Fatalf("%d.String() = %q, want %q", typ, typ.String(), name)
		}
	}
}
