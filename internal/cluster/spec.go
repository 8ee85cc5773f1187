package cluster

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/holmes-colocation/holmes/internal/batch"
	"github.com/holmes-colocation/holmes/internal/faults"
	"github.com/holmes-colocation/holmes/internal/lcservice"
	"github.com/holmes-colocation/holmes/internal/scenario"
	"github.com/holmes-colocation/holmes/internal/ycsb"
)

// Spec describes a whole cluster run: the fleet, the Guaranteed service
// pods to place, the BestEffort pod stream, and the control-plane knobs.
// It is pure data — JSON-loadable for cmd/holmes-cluster — and every
// stochastic component of the run derives its seed from Seed, so a Spec
// identifies one reproducible outcome.
type Spec struct {
	Name string `json:"name"`
	// Nodes is the fleet size; CoresPerNode the physical cores of each
	// node's machine (x2 hardware threads).
	Nodes        int `json:"nodes"`
	CoresPerNode int `json:"cores_per_node"`
	// ReservedCPUs is each node's initial Holmes reserved pool (0 = 4).
	ReservedCPUs int `json:"reserved_cpus"`
	// Placer selects the placement policy: "vpi" (interference-aware),
	// "score" (predicted post-placement interference score), or
	// "binpack" (first-fit by thread count, the baseline).
	Placer string `json:"placer"`
	// LoD selects node simulation fidelity: "full" (default) advances
	// every node's machine each round; "auto" fast-forwards quiescent
	// nodes (no pods, no hot streak, not suspect, VPI trend quiet) and
	// pays their lag back only when placement targets them. "auto"
	// silently falls back to full fidelity when a node-fault chaos
	// schedule is present, whose per-round crash/partition semantics
	// need every node advanced.
	LoD string `json:"lod,omitempty"`
	// HeartbeatMs is the node heartbeat / control-plane round period.
	HeartbeatMs int64 `json:"heartbeat_ms"`
	// WarmupSeconds and DurationSeconds are simulated time; measurement
	// (latency, utilization, completions) covers only the duration.
	WarmupSeconds   float64 `json:"warmup_seconds"`
	DurationSeconds float64 `json:"duration_seconds"`
	Seed            uint64  `json:"seed"`
	// SLOUs is the per-query latency SLO in microseconds (0 = 200).
	SLOUs float64 `json:"slo_us"`
	// EvictVPI is the reconciler threshold: a node whose round-scale VPI
	// trend (EWMA over heartbeat SmoothedVPI) stays at or above it for
	// HotRounds consecutive heartbeats gets a BestEffort pod evicted and
	// rescheduled (0 = 25).
	EvictVPI float64 `json:"evict_vpi"`
	// HotRounds is the consecutive-hot-heartbeat count that arms an
	// eviction (0 = 2).
	HotRounds int `json:"hot_rounds"`
	// MaxEvictions bounds how often one pod may be evicted before it is
	// pinned in place (0 = 2); with the placement retry bound this keeps
	// rescheduling from livelocking.
	MaxEvictions int `json:"max_evictions"`

	// Chaos, when non-nil, applies the fault schedule to the run: counter
	// and cgroup faults are injected into every node's daemon, node-level
	// faults (crash, heartbeat loss, slow node) into the control-plane
	// rounds. See internal/faults.
	Chaos *faults.Spec `json:"chaos,omitempty"`
	// SuspectRounds/DeadRounds tune the phi-style failure detector: a
	// node is suspected (soft-avoided by placement) at phi >=
	// SuspectRounds and declared dead (pods rescheduled from checkpoints)
	// at phi >= DeadRounds, where phi is missed rounds normalized by the
	// node's own heartbeat-gap history (0 = 3 and 6).
	SuspectRounds int `json:"suspect_rounds"`
	DeadRounds    int `json:"dead_rounds"`
	// DisableDegradation switches off every graceful-degradation
	// mechanism — the daemon watchdog and re-scan, the failure detector,
	// checkpoint rescheduling — so the control plane schedules on
	// whatever garbage the faults produce. The chaos experiment's
	// control arm.
	DisableDegradation bool `json:"disable_degradation"`

	Services []ServiceSpec `json:"services"`
	Batch    BatchStream   `json:"batch"`

	// Topology, when non-nil, adds the open-loop traffic plane: replicated
	// services behind the load-balancer tier, driven by declarative
	// traffic programs and grown/shrunk by the horizontal autoscaler (see
	// internal/scenario.Topology and internal/traffic). A spec may carry
	// classic closed-loop Services, a Topology, or both; with a Topology
	// present, Services may be empty.
	Topology *scenario.Topology `json:"topology,omitempty"`
}

// ServiceSpec is one Guaranteed service pod: a latency-critical store
// plus its open-loop YCSB client, placed by the control plane.
type ServiceSpec struct {
	Name     string `json:"name"`
	Store    string `json:"store"`
	Workload string `json:"workload"` // YCSB a..f ("" = a)
	// RecordCount preloads the store (0 = 20,000).
	RecordCount int64   `json:"record_count"`
	RPS         float64 `json:"rps"`
}

// BatchStream is the BestEffort pod arrival process: Pods total, up to
// PodsPerRound entering the pending queue each heartbeat round.
type BatchStream struct {
	Pods         int `json:"pods"`
	PodsPerRound int `json:"pods_per_round"`
	// Shape of each pod (0s = 2 containers x 2 threads x 600 units).
	Containers          int `json:"containers"`
	ThreadsPerContainer int `json:"threads_per_container"`
	WorkUnitsPerThread  int `json:"work_units_per_thread"`
	// Kinds rotates the workload profile (empty = all batch kinds).
	Kinds []string `json:"kinds"`
}

// Placer policy names.
const (
	PlacerVPI     = "vpi"
	PlacerScore   = "score"
	PlacerBinPack = "binpack"
)

// Level-of-detail settings.
const (
	LoDFull = "full"
	LoDAuto = "auto"
)

// DefaultSpec is the 6-node reference cluster: four LC services to
// spread, a stream of BestEffort pods to backfill.
func DefaultSpec() Spec {
	return Spec{
		Name:            "cluster",
		Nodes:           6,
		CoresPerNode:    8,
		Placer:          PlacerVPI,
		HeartbeatMs:     50,
		WarmupSeconds:   1,
		DurationSeconds: 3,
		Seed:            1,
		Services: []ServiceSpec{
			{Name: "redis-a", Store: "redis", Workload: "a", RPS: 10_000},
			{Name: "rocksdb-a", Store: "rocksdb", Workload: "a", RPS: 40_000},
			{Name: "memcached-a", Store: "memcached", Workload: "a", RPS: 40_000},
			{Name: "wiredtiger-a", Store: "wiredtiger", Workload: "a", RPS: 40_000},
		},
		Batch: BatchStream{Pods: 48, PodsPerRound: 6, Containers: 2,
			ThreadsPerContainer: 2, WorkUnitsPerThread: 900},
	}
}

// Load parses a JSON cluster spec, rejecting unknown fields so typos
// surface as errors instead of silently ignored knobs.
func Load(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("cluster: %w", err)
	}
	return s, s.Validate()
}

// Validate checks the spec and returns a descriptive error for the first
// problem found.
func (s Spec) Validate() error {
	if s.Nodes < 1 || s.Nodes > 1024 {
		return fmt.Errorf("cluster: nodes %d out of range [1,1024]", s.Nodes)
	}
	if s.CoresPerNode < 1 || s.CoresPerNode > 64 {
		return fmt.Errorf("cluster: cores_per_node %d out of range [1,64]", s.CoresPerNode)
	}
	if s.ReservedCPUs < 0 || s.reservedCPUs() > s.CoresPerNode {
		return fmt.Errorf("cluster: %d reserved CPUs exceed %d cores per node",
			s.reservedCPUs(), s.CoresPerNode)
	}
	switch s.Placer {
	case "", PlacerVPI, PlacerScore, PlacerBinPack:
	default:
		return fmt.Errorf("cluster: unknown placer %q (want %q, %q or %q)",
			s.Placer, PlacerVPI, PlacerScore, PlacerBinPack)
	}
	switch s.LoD {
	case "", LoDFull, LoDAuto:
	default:
		return fmt.Errorf("cluster: unknown lod %q (want %q or %q)",
			s.LoD, LoDFull, LoDAuto)
	}
	if s.HeartbeatMs < 0 {
		return fmt.Errorf("cluster: heartbeat_ms must be positive")
	}
	if s.DurationSeconds <= 0 {
		return fmt.Errorf("cluster: duration_seconds must be positive")
	}
	if s.WarmupSeconds < 0 {
		return fmt.Errorf("cluster: warmup_seconds must not be negative")
	}
	if len(s.Services) == 0 && s.Topology == nil {
		return fmt.Errorf("cluster: at least one service required")
	}
	if s.Topology != nil {
		if err := s.Topology.Validate(); err != nil {
			return err
		}
	}
	seen := map[string]bool{}
	for _, svc := range s.Services {
		if svc.Name == "" {
			return fmt.Errorf("cluster: every service needs a name")
		}
		if seen[svc.Name] {
			return fmt.Errorf("cluster: duplicate service name %q", svc.Name)
		}
		seen[svc.Name] = true
		if !lcservice.IsStore(svc.Store) {
			return fmt.Errorf("cluster: service %s: unknown store %q", svc.Name, svc.Store)
		}
		if _, err := ycsb.ByName(orDefault(svc.Workload, "a")); err != nil {
			return fmt.Errorf("cluster: service %s: %w", svc.Name, err)
		}
		if svc.RPS <= 0 {
			return fmt.Errorf("cluster: service %s needs a positive rps", svc.Name)
		}
	}
	if s.Batch.Pods < 0 || s.Batch.PodsPerRound < 0 {
		return fmt.Errorf("cluster: batch pod counts must not be negative")
	}
	for _, name := range s.Batch.Kinds {
		if _, err := batchKind(name); err != nil {
			return err
		}
	}
	if s.SuspectRounds < 0 || s.DeadRounds < 0 {
		return fmt.Errorf("cluster: detector rounds must not be negative")
	}
	if s.deadRounds() <= s.suspectRounds() {
		return fmt.Errorf("cluster: dead_rounds %d must exceed suspect_rounds %d",
			s.deadRounds(), s.suspectRounds())
	}
	if s.Chaos != nil {
		if err := s.Chaos.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Defaulted accessors: zero values mean "use the reference setting", so a
// hand-written JSON spec only states what it changes.

// orDefault returns v, or d when v is the zero value.
func orDefault[T comparable](v, d T) T {
	var zero T
	if v == zero {
		return d
	}
	return v
}

func (s Spec) reservedCPUs() int  { return orDefault(s.ReservedCPUs, 4) }
func (s Spec) heartbeatNs() int64 { return orDefault(s.HeartbeatMs, 50) * 1_000_000 }

// sloNs defaults to 200 µs, a few x the stores' uncontended p99.
func (s Spec) sloNs() float64 { return orDefault(s.SLOUs, 200) * 1e3 }

// resilientTopology reports whether any replicated service runs the
// request-path resilience layer — the gate for the "requests" SLO, so
// non-resilient runs keep their exact pre-existing alert stream.
func (s Spec) resilientTopology() bool {
	if s.Topology == nil {
		return false
	}
	for _, rs := range s.Topology.Services {
		if rs.Resilience != nil {
			return true
		}
	}
	return false
}

func (s Spec) evictVPI() float64 { return orDefault(s.EvictVPI, 25) }
func (s Spec) hotRounds() int    { return orDefault(s.HotRounds, 2) }
func (s Spec) maxEvictions() int { return orDefault(s.MaxEvictions, 2) }
func (s Spec) placer() string    { return orDefault(s.Placer, PlacerVPI) }

// lodAuto reports whether the run should fast-forward quiescent nodes.
// A node-fault chaos schedule forces full fidelity: crash, partition and
// slow-node rounds assume every machine advances in lockstep.
func (s Spec) lodAuto() bool {
	return s.LoD == LoDAuto && (s.Chaos == nil || !s.Chaos.Nodes.Enabled())
}

func (s Spec) suspectRounds() int { return orDefault(s.SuspectRounds, 3) }
func (s Spec) deadRounds() int    { return orDefault(s.DeadRounds, 6) }

// rounds converts the warmup/duration seconds into heartbeat rounds.
func (s Spec) rounds() (warmup, measure int) {
	hbNs := s.heartbeatNs()
	warmup = int((int64(s.WarmupSeconds*1e9) + hbNs - 1) / hbNs)
	measure = int((int64(s.DurationSeconds*1e9) + hbNs - 1) / hbNs)
	if measure < 1 {
		measure = 1
	}
	return
}

// totalSimNs is the full simulated length of the run (warmup included),
// the horizon fault schedules are resolved against.
func (s Spec) totalSimNs() int64 {
	w, m := s.rounds()
	return int64(w+m) * s.heartbeatNs()
}

func (b BatchStream) podSpecShape() (containers, threads, units int) {
	containers, threads, units = b.Containers, b.ThreadsPerContainer, b.WorkUnitsPerThread
	if containers <= 0 {
		containers = 2
	}
	if threads <= 0 {
		threads = 2
	}
	if units <= 0 {
		units = 600
	}
	return
}

func (b BatchStream) kinds() ([]batch.Kind, error) {
	if len(b.Kinds) == 0 {
		return batch.Kinds(), nil
	}
	kinds := make([]batch.Kind, 0, len(b.Kinds))
	for _, name := range b.Kinds {
		k, err := batchKind(name)
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

func batchKind(name string) (batch.Kind, error) {
	for _, k := range batch.Kinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown batch kind %q", name)
}
