package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// EventType identifies a scheduler decision or observation.
type EventType uint8

// The decision events the Holmes daemon emits. They cover every state
// transition of Algorithms 1-3: batch discovery, sibling lending and
// eviction, pool expansion, LC service lifecycle, and the
// (decimated) monitor samples that carry the raw VPI/usage signal.
const (
	SiblingGranted EventType = iota
	SiblingRevoked
	PoolExpanded
	LCRegistered
	LCExited
	BatchDiscovered
	MonitorSample
	SafeModeEntered
	SafeModeExited
	RescanRepaired

	numEventTypes
)

// String returns the event type name used in JSON and filters.
func (t EventType) String() string {
	switch t {
	case SiblingGranted:
		return "SiblingGranted"
	case SiblingRevoked:
		return "SiblingRevoked"
	case PoolExpanded:
		return "PoolExpanded"
	case LCRegistered:
		return "LCRegistered"
	case LCExited:
		return "LCExited"
	case BatchDiscovered:
		return "BatchDiscovered"
	case MonitorSample:
		return "MonitorSample"
	case SafeModeEntered:
		return "SafeModeEntered"
	case SafeModeExited:
		return "SafeModeExited"
	case RescanRepaired:
		return "RescanRepaired"
	}
	return fmt.Sprintf("EventType(%d)", int(t))
}

// MarshalJSON renders the type as its name.
func (t EventType) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.String())
}

// Event is one structured decision record. It is a plain value — emitting
// one copies it into each sink without heap allocation (hot-path events
// leave Detail empty; only cold-path events like BatchDiscovered carry a
// string).
type Event struct {
	// TimeNs is the simulated time the decision was made.
	TimeNs int64     `json:"time_ns"`
	Type   EventType `json:"type"`
	// CPU is the logical CPU the decision concerns (-1 when n/a).
	CPU int `json:"cpu"`
	// Core is the physical core of CPU (-1 when n/a).
	Core int `json:"core"`
	// PID identifies the process for lifecycle events (0 when n/a).
	PID int `json:"pid,omitempty"`
	// VPI and Usage are the monitor's observations at the decision point.
	VPI   float64 `json:"vpi"`
	Usage float64 `json:"usage"`
	// Threshold is the configured limit that fired (E for sibling
	// decisions, T for pool decisions; 0 when n/a).
	Threshold float64 `json:"threshold,omitempty"`
	// Detail carries cold-path context such as a cgroup path.
	Detail string `json:"detail,omitempty"`
}

// Sink consumes emitted events. Record must be safe for concurrent use.
type Sink interface {
	Record(ev Event)
}

// Ring is a fixed-size ring buffer of events: the newest Cap events are
// retained, older ones are overwritten. It is the tracer's default sink
// and what the /events endpoint serves.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total uint64
}

// NewRing creates a ring retaining the newest capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Record appends an event, overwriting the oldest once full.
func (r *Ring) Record(ev Event) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the retained events oldest-first.
func (r *Ring) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Total returns how many events were ever recorded.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many events were overwritten.
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(len(r.buf))
}

// JSONLSink writes each event as one JSON line, for capturing a decision
// log during a holmes-bench run (-telemetry-out). It serializes writes;
// encoding allocates, so it belongs on offline runs, not the 100 µs tick
// of a latency experiment.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	enc *json.Encoder
	n   int64
}

// NewJSONLSink wraps w. The caller retains ownership of w (closing it
// after the run, for files).
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w, enc: json.NewEncoder(w)}
}

// Record encodes the event as one line.
func (s *JSONLSink) Record(ev Event) {
	s.mu.Lock()
	_ = s.enc.Encode(ev) // Encode appends '\n'
	s.n++
	s.mu.Unlock()
}

// Count returns the number of events written.
func (s *JSONLSink) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// CallbackSink adapts a function into a Sink.
type CallbackSink func(ev Event)

// Record invokes the callback.
func (f CallbackSink) Record(ev Event) { f(ev) }

// Tracer fans emitted events out to its sinks. The sink list is
// copy-on-write behind an atomic pointer, so Emit never takes the
// tracer's own lock; a nil *Tracer drops everything.
type Tracer struct {
	sinks atomic.Pointer[[]Sink]
	ring  *Ring
}

// NewTracer creates a tracer whose first sink is a ring retaining the
// newest ringCap events.
func NewTracer(ringCap int) *Tracer {
	t := &Tracer{ring: NewRing(ringCap)}
	sinks := []Sink{t.ring}
	t.sinks.Store(&sinks)
	return t
}

// Ring returns the tracer's built-in ring sink.
func (t *Tracer) Ring() *Ring {
	if t == nil {
		return nil
	}
	return t.ring
}

// AddSink attaches an additional sink (copy-on-write; safe while Emit
// runs concurrently).
func (t *Tracer) AddSink(s Sink) {
	if t == nil || s == nil {
		return
	}
	for {
		old := t.sinks.Load()
		next := append(append([]Sink(nil), *old...), s)
		if t.sinks.CompareAndSwap(old, &next) {
			return
		}
	}
}

// Emit records the event in every sink. Safe on a nil receiver.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	for _, s := range *t.sinks.Load() {
		s.Record(ev)
	}
}
