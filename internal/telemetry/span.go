package telemetry

import (
	"encoding/json"
	"fmt"
	"sync"
)

// SpanKind identifies one stage of a traced causal chain: the pod
// lifecycle the cluster control plane drives (admit -> place -> run ->
// quarantine -> evict -> requeue -> reschedule) and the daemon decision
// chain behind every mask change (counter sample -> VPI estimate -> mask
// decision -> cgroupfs write).
type SpanKind uint8

const (
	// Pod lifecycle (control-plane recorder).
	SpanPodAdmit SpanKind = iota
	SpanPodPlace
	SpanPodRun
	SpanPodQuarantine
	SpanPodEvict
	SpanPodRequeue
	SpanPodReschedule
	SpanPodComplete
	SpanServicePlace
	SpanServiceFailover
	SpanNodeCrash
	SpanNodeReboot

	// Daemon decision chain (per-node recorders).
	SpanCounterSample
	SpanVPIEstimate
	SpanMaskDecision
	SpanCgroupWrite
	SpanSiblingBorrow
	SpanPoolExpand
	SpanSafeMode

	// Autoscaler replica lifecycle (control-plane recorder).
	SpanReplicaScaleUp
	SpanReplicaScaleDown
	SpanReplicaRetire

	// Request-path resilience: one interval span per circuit-breaker
	// open/half-open episode (control-plane recorder).
	SpanBreakerOpen

	numSpanKinds
)

// String returns the kind name used in JSON, trace exports and filters.
func (k SpanKind) String() string {
	switch k {
	case SpanPodAdmit:
		return "PodAdmit"
	case SpanPodPlace:
		return "PodPlace"
	case SpanPodRun:
		return "PodRun"
	case SpanPodQuarantine:
		return "PodQuarantine"
	case SpanPodEvict:
		return "PodEvict"
	case SpanPodRequeue:
		return "PodRequeue"
	case SpanPodReschedule:
		return "PodReschedule"
	case SpanPodComplete:
		return "PodComplete"
	case SpanServicePlace:
		return "ServicePlace"
	case SpanServiceFailover:
		return "ServiceFailover"
	case SpanNodeCrash:
		return "NodeCrash"
	case SpanNodeReboot:
		return "NodeReboot"
	case SpanCounterSample:
		return "CounterSample"
	case SpanVPIEstimate:
		return "VPIEstimate"
	case SpanMaskDecision:
		return "MaskDecision"
	case SpanCgroupWrite:
		return "CgroupWrite"
	case SpanSiblingBorrow:
		return "SiblingBorrow"
	case SpanPoolExpand:
		return "PoolExpand"
	case SpanReplicaScaleUp:
		return "ReplicaScaleUp"
	case SpanReplicaScaleDown:
		return "ReplicaScaleDown"
	case SpanReplicaRetire:
		return "ReplicaRetire"
	case SpanBreakerOpen:
		return "BreakerOpen"
	case SpanSafeMode:
		return "SafeMode"
	}
	return fmt.Sprintf("SpanKind(%d)", int(k))
}

// MarshalJSON renders the kind as its name.
func (k SpanKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// Span is one sim-time-stamped interval in a causal chain. IDs are
// per-recorder sequence numbers starting at 1; Parent 0 means a root
// span. A Span is a plain value: recording one copies it into
// a preallocated ring slot, and the string fields on the hot path carry
// existing string headers, so the record path never heap-allocates.
type Span struct {
	ID     uint64   `json:"id"`
	Parent uint64   `json:"parent,omitempty"`
	Kind   SpanKind `json:"kind"`
	// StartNs/EndNs are simulated time. EndNs is -1 while the span is
	// open (started but not finished).
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// Node is the cluster node the span belongs to (-1: control plane).
	Node int `json:"node"`
	// CPU is the logical CPU concerned (-1 when n/a).
	CPU int `json:"cpu"`
	// Name identifies the subject: a pod or service name, usually.
	Name string `json:"name,omitempty"`
	// Detail carries cold-path context (a cgroup path, a reason).
	Detail string `json:"detail,omitempty"`
	// Value is the measurement behind the decision (a VPI, a burn rate).
	Value float64 `json:"value,omitempty"`
}

// DurationNs returns the span length, or 0 while it is open.
func (s Span) DurationNs() int64 {
	if s.EndNs < s.StartNs {
		return 0
	}
	return s.EndNs - s.StartNs
}

// DefaultSpanRingSize is the span retention of a NewSet recorder. Spans
// are emitted on decision changes, not per tick, so 4096 holds minutes of
// simulated causality.
const DefaultSpanRingSize = 4096

// SpanRecorder retains the newest capacity spans in a ring, assigning
// deterministic per-recorder IDs. All methods are safe on a nil receiver
// (recording becomes a no-op returning ID 0), so call sites need no
// tracing-enabled branches. It is safe for concurrent use; determinism
// across worker counts comes from giving each independently simulated
// node its own recorder.
type SpanRecorder struct {
	mu     sync.Mutex
	buf    []Span
	next   int
	total  uint64
	nextID uint64
}

// NewSpanRecorder creates a recorder retaining the newest capacity spans.
func NewSpanRecorder(capacity int) *SpanRecorder {
	if capacity <= 0 {
		capacity = 1
	}
	return &SpanRecorder{buf: make([]Span, 0, capacity)}
}

// Add records a completed span, assigning and returning its ID.
func (r *SpanRecorder) Add(s Span) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.nextID++
	s.ID = r.nextID
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next] = s
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
	r.mu.Unlock()
	return s.ID
}

// Start records an open span (EndNs -1) and returns its ID for Finish.
func (r *SpanRecorder) Start(s Span) uint64 {
	s.EndNs = -1
	return r.Add(s)
}

// Finish closes a span previously recorded with Start. The scan runs
// newest-first, so finishing a recently started span is cheap; a span
// already overwritten by ring wraparound is silently gone.
func (r *SpanRecorder) Finish(id uint64, endNs int64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	n := len(r.buf)
	for i := 0; i < n; i++ {
		// Walk backwards from the most recently written slot.
		idx := (r.next - 1 - i + 2*n) % n
		if r.buf[idx].ID == id {
			r.buf[idx].EndNs = endNs
			break
		}
		if r.buf[idx].ID < id {
			break // older than the target: it was never recorded
		}
	}
	r.mu.Unlock()
}

// Snapshot returns the retained spans oldest-first.
func (r *SpanRecorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Total returns how many spans were ever recorded.
func (r *SpanRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many spans were overwritten by ring wraparound.
func (r *SpanRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(len(r.buf))
}
