package scenario

import (
	"encoding/json"
	"fmt"
	"io"
)

// Topology is the declarative cluster-composition spec: replicated
// latency-critical services, the open-loop traffic programs that drive
// them, and the autoscaler bounds — everything an experiment previously
// wired by hand, in one JSON-loadable document consumed by
// internal/cluster. It is pure data: internal/traffic compiles the
// programs into arrival processes, internal/cluster places the replicas.
type Topology struct {
	Services []ReplicatedService `json:"services"`
	Programs []TrafficProgram    `json:"programs"`
}

// ReplicatedService is one latency-critical KV service horizontally
// replicated behind the load-balancer tier. Every replica is a full
// store+service instance on some cluster node; the balancer spreads the
// program's arrivals across them with per-replica queue admission.
type ReplicatedService struct {
	Name  string `json:"name"`
	Store string `json:"store"`
	// Workload selects the YCSB operation mix ("" = b). Scan and insert
	// proportions are folded into read and update respectively: scans are
	// unsupported on some stores and inserts would diverge the replicas'
	// keyspaces, so the open-loop mix keeps read/update/rmw only.
	Workload string `json:"workload"`
	// RecordCount preloads each replica's store with the hot working set
	// (0 = 20,000). The program's modeled user population folds onto it:
	// a drawn user index maps to record index user % RecordCount.
	RecordCount int64 `json:"record_count"`
	// Program names the TrafficProgram that drives this service.
	Program string `json:"program"`
	// Replicas is the initial replica count.
	Replicas int `json:"replicas"`
	// QueueCap bounds each replica's outstanding requests; the balancer
	// drops arrivals when every routable replica is at the cap (0 = 256).
	QueueCap int `json:"queue_cap"`
	// Autoscaler, when non-nil, lets the control plane grow and shrink
	// the replica set; nil pins the count at Replicas.
	Autoscaler *AutoscalerSpec `json:"autoscaler,omitempty"`
	// Resilience, when non-nil, enables the request-path resilience
	// layer for this service: per-request deadlines, budgeted retries,
	// a circuit breaker and replica-side load shedding. Nil keeps the
	// fire-and-forget dispatch of the plain traffic plane.
	Resilience *ResilienceSpec `json:"resilience,omitempty"`
}

// ResilienceSpec configures the closed-loop request-path behavior of one
// replicated service: how clients time out, retry and back off, when the
// per-service circuit breaker trips, and how replicas shed load. Zero
// fields take the documented defaults; a nil spec disables the whole
// layer.
type ResilienceSpec struct {
	// DeadlineMs is the per-request deadline in milliseconds: replies
	// draining after it count as expired (the client timed out and the
	// server's work was wasted), and expiry is what feeds client-side
	// retry detection. It must be positive — a resilience layer without
	// timeouts cannot detect anything.
	DeadlineMs float64 `json:"deadline_ms"`
	// MaxAttempts is the total tries per request, first included
	// (0 = 1, i.e. no retries; capped at 6 — the control plane's
	// per-attempt accounting arrays are sized by the cap).
	MaxAttempts int `json:"max_attempts"`
	// RetryBackoffRounds is the base exponential backoff in
	// control-plane rounds: attempt a's failure retries BackoffRounds<<a
	// rounds later (0 = 1).
	RetryBackoffRounds int `json:"retry_backoff_rounds"`
	// RetryJitterRounds adds a uniform [0, N] seed-derived draw to every
	// retry delay (0 = 1; negative values are rejected).
	RetryJitterRounds int `json:"retry_jitter_rounds"`
	// RetryBudget bounds retries to this fraction of recent successes
	// over BudgetWindowRounds (0 = unlimited — the naive client).
	RetryBudget float64 `json:"retry_budget"`
	// BudgetWindowRounds is the sliding success window the budget
	// accrues over (0 = 20).
	BudgetWindowRounds int `json:"budget_window_rounds"`
	// BreakerFailureRate trips the per-service circuit breaker when the
	// windowed failure fraction reaches it (0 = breaker disabled).
	BreakerFailureRate float64 `json:"breaker_failure_rate"`
	// BreakerWindowRounds is the failure-rate window (0 = 4).
	BreakerWindowRounds int `json:"breaker_window_rounds"`
	// BreakerMinVolume is the minimum windowed outcome count before the
	// rate is trusted (0 = 50).
	BreakerMinVolume int `json:"breaker_min_volume"`
	// BreakerOpenRounds holds the breaker open before probing (0 = 8).
	BreakerOpenRounds int `json:"breaker_open_rounds"`
	// BreakerProbes is the half-open per-round probe admission quota
	// (0 = 8).
	BreakerProbes int `json:"breaker_probes"`
	// ConcurrencyLimit sheds requests at a replica once its unresolved
	// count reaches it — replica-side admission control (0 = unlimited).
	ConcurrencyLimit int `json:"concurrency_limit"`
}

// AutoscalerSpec bounds the horizontal autoscaler for one service.
type AutoscalerSpec struct {
	Min int `json:"min"`
	Max int `json:"max"`
	// UpQueue/DownQueue are per-replica queue-depth watermarks against the
	// admission-window depth (carried backlog plus the round's dispatches,
	// per routable replica): depth at or above UpQueue (or a paging
	// latency burn) builds scale-up pressure, depth at or below DownQueue
	// builds scale-down pressure (0 = 48 and 8).
	UpQueue   float64 `json:"up_queue"`
	DownQueue float64 `json:"down_queue"`
	// UpRounds/DownRounds are the consecutive-round streaks required
	// before acting (0 = 2 and 6): one bursty heartbeat cannot scale.
	UpRounds   int `json:"up_rounds"`
	DownRounds int `json:"down_rounds"`
	// CooldownRounds suppresses scale-downs after any scale action
	// (0 = 10), so the set grows promptly under load and decays slowly.
	CooldownRounds int `json:"cooldown_rounds"`
}

// TrafficProgram is one open-loop arrival process: a diurnal base curve
// between BaseRPS and PeakRPS over a compressed day, flash-crowd spikes
// multiplying it, and regional keyspace skew over a modeled user
// population. Arrivals are Poisson draws from the composed rate; every
// random choice derives from the run seed, never from scheduling.
type TrafficProgram struct {
	Name string `json:"name"`
	// Users is the modeled population: the key universe regional shards
	// partition. It scales the keyspace, not the arrival rate — the rate
	// is stated directly so a compressed day stays CI-feasible.
	Users int64 `json:"users"`
	// BaseRPS/PeakRPS are the diurnal trough and peak arrival rates; the
	// curve is sinusoidal with the trough at t=0 and the peak at midday.
	BaseRPS float64 `json:"base_rps"`
	PeakRPS float64 `json:"peak_rps"`
	// DaySeconds is the compressed day length in simulated seconds; the
	// curve wraps for runs longer than one day.
	DaySeconds float64 `json:"day_seconds"`
	// ZipfTheta skews each region's key popularity (0 = 0.99).
	ZipfTheta float64 `json:"zipf_theta"`
	Spikes    []Spike `json:"spikes,omitempty"`
	// Regions partition the user keyspace; empty means one region over
	// the full range.
	Regions []Region `json:"regions,omitempty"`
}

// Spike is one flash crowd: the diurnal rate is multiplied by up to
// Multiplier inside [StartSeconds, StartSeconds+DurationSeconds), with
// linear ramps covering RampFraction of the duration on each side
// (0 = 0.25).
type Spike struct {
	StartSeconds    float64 `json:"start_seconds"`
	DurationSeconds float64 `json:"duration_seconds"`
	Multiplier      float64 `json:"multiplier"`
	RampFraction    float64 `json:"ramp_fraction"`
}

// Region is one user-population segment: Weight of the arrivals draw
// their keys from the Shard slice [lo, hi) of the user keyspace, under
// the region's own scrambled-Zipf popularity — different regions are hot
// on different keys.
type Region struct {
	Name   string     `json:"name"`
	Weight float64    `json:"weight"`
	Shard  [2]float64 `json:"shard"`
}

// LoadTopology parses a JSON topology, rejecting unknown fields.
func LoadTopology(r io.Reader) (Topology, error) {
	var t Topology
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return t, fmt.Errorf("topology: %w", err)
	}
	return t, t.Validate()
}

// Validate checks the topology and returns a descriptive error for the
// first problem found.
func (t Topology) Validate() error {
	if len(t.Services) == 0 {
		return fmt.Errorf("topology: at least one replicated service required")
	}
	progs := map[string]bool{}
	for _, p := range t.Programs {
		if p.Name == "" {
			return fmt.Errorf("topology: every traffic program needs a name")
		}
		if progs[p.Name] {
			return fmt.Errorf("topology: duplicate program name %q", p.Name)
		}
		progs[p.Name] = true
		if err := p.validate(); err != nil {
			return err
		}
	}
	seen := map[string]bool{}
	for _, s := range t.Services {
		if s.Name == "" {
			return fmt.Errorf("topology: every service needs a name")
		}
		if seen[s.Name] {
			return fmt.Errorf("topology: duplicate service name %q", s.Name)
		}
		seen[s.Name] = true
		switch s.Store {
		case "redis", "memcached", "rocksdb", "wiredtiger":
		default:
			return fmt.Errorf("topology: service %s: unknown store %q", s.Name, s.Store)
		}
		if s.Workload != "" {
			switch s.Workload {
			case "a", "b", "c", "d", "e", "f":
			default:
				return fmt.Errorf("topology: service %s: unknown workload %q", s.Name, s.Workload)
			}
		}
		if s.RecordCount < 0 {
			return fmt.Errorf("topology: service %s: record_count must not be negative", s.Name)
		}
		if !progs[s.Program] {
			return fmt.Errorf("topology: service %s references unknown program %q", s.Name, s.Program)
		}
		if s.Replicas < 1 {
			return fmt.Errorf("topology: service %s needs at least one replica", s.Name)
		}
		if s.QueueCap < 0 {
			return fmt.Errorf("topology: service %s: queue_cap must not be negative", s.Name)
		}
		if a := s.Autoscaler; a != nil {
			if a.Min < 1 {
				return fmt.Errorf("topology: service %s: autoscaler min %d must be at least 1", s.Name, a.Min)
			}
			if a.Min > a.Max {
				return fmt.Errorf("topology: service %s: autoscaler min %d exceeds max %d", s.Name, a.Min, a.Max)
			}
			if s.Replicas < a.Min || s.Replicas > a.Max {
				return fmt.Errorf("topology: service %s: %d replicas outside autoscaler bounds [%d,%d]",
					s.Name, s.Replicas, a.Min, a.Max)
			}
			if a.UpQueue < 0 || a.DownQueue < 0 {
				return fmt.Errorf("topology: service %s: autoscaler watermarks must not be negative", s.Name)
			}
			if a.UpQueue > 0 && a.DownQueue > 0 && a.DownQueue >= a.UpQueue {
				return fmt.Errorf("topology: service %s: autoscaler down_queue %.1f must be below up_queue %.1f",
					s.Name, a.DownQueue, a.UpQueue)
			}
			if a.UpRounds < 0 || a.DownRounds < 0 || a.CooldownRounds < 0 {
				return fmt.Errorf("topology: service %s: autoscaler round counts must not be negative", s.Name)
			}
		}
		if res := s.Resilience; res != nil {
			if res.DeadlineMs <= 0 {
				return fmt.Errorf("topology: service %s: resilience needs a positive deadline_ms", s.Name)
			}
			if res.MaxAttempts < 0 || res.MaxAttempts > 6 {
				return fmt.Errorf("topology: service %s: resilience max_attempts %d out of range [0,6]",
					s.Name, res.MaxAttempts)
			}
			if res.RetryBackoffRounds < 0 || res.RetryJitterRounds < 0 {
				return fmt.Errorf("topology: service %s: resilience retry rounds must not be negative", s.Name)
			}
			if res.RetryBudget < 0 {
				return fmt.Errorf("topology: service %s: resilience retry_budget must not be negative", s.Name)
			}
			if res.BudgetWindowRounds < 0 {
				return fmt.Errorf("topology: service %s: resilience budget_window_rounds must not be negative", s.Name)
			}
			if res.BreakerFailureRate < 0 || res.BreakerFailureRate > 1 {
				return fmt.Errorf("topology: service %s: resilience breaker_failure_rate %.2f out of range [0,1]",
					s.Name, res.BreakerFailureRate)
			}
			if res.BreakerWindowRounds < 0 || res.BreakerMinVolume < 0 ||
				res.BreakerOpenRounds < 0 || res.BreakerProbes < 0 {
				return fmt.Errorf("topology: service %s: resilience breaker settings must not be negative", s.Name)
			}
			if res.ConcurrencyLimit < 0 {
				return fmt.Errorf("topology: service %s: resilience concurrency_limit must not be negative", s.Name)
			}
		}
	}
	return nil
}

func (p TrafficProgram) validate() error {
	if p.Users < 1 {
		return fmt.Errorf("topology: program %s needs a positive user population", p.Name)
	}
	if p.BaseRPS <= 0 {
		return fmt.Errorf("topology: program %s: base_rps must be positive", p.Name)
	}
	if p.PeakRPS < p.BaseRPS {
		return fmt.Errorf("topology: program %s: peak_rps %.0f below base_rps %.0f",
			p.Name, p.PeakRPS, p.BaseRPS)
	}
	if p.DaySeconds <= 0 {
		return fmt.Errorf("topology: program %s: day_seconds must be positive", p.Name)
	}
	if p.ZipfTheta < 0 || p.ZipfTheta >= 1 {
		return fmt.Errorf("topology: program %s: zipf_theta %.2f out of range [0,1)", p.Name, p.ZipfTheta)
	}
	for i, sp := range p.Spikes {
		if sp.StartSeconds < 0 || sp.DurationSeconds <= 0 {
			return fmt.Errorf("topology: program %s: spike %d needs a non-negative start and positive duration",
				p.Name, i)
		}
		if sp.StartSeconds+sp.DurationSeconds > p.DaySeconds {
			return fmt.Errorf("topology: program %s: spike %d ends after the %.1fs day",
				p.Name, i, p.DaySeconds)
		}
		if sp.Multiplier < 1 {
			return fmt.Errorf("topology: program %s: spike %d multiplier %.2f must be at least 1",
				p.Name, i, sp.Multiplier)
		}
		if sp.RampFraction < 0 || sp.RampFraction > 0.5 {
			return fmt.Errorf("topology: program %s: spike %d ramp_fraction %.2f out of range [0,0.5]",
				p.Name, i, sp.RampFraction)
		}
	}
	for i, reg := range p.Regions {
		if reg.Name == "" {
			return fmt.Errorf("topology: program %s: region %d needs a name", p.Name, i)
		}
		if reg.Weight <= 0 {
			return fmt.Errorf("topology: program %s: region %s needs a positive weight", p.Name, reg.Name)
		}
		if reg.Shard[0] < 0 || reg.Shard[1] > 1 || reg.Shard[0] >= reg.Shard[1] {
			return fmt.Errorf("topology: program %s: region %s shard [%.2f,%.2f) is not a slice of [0,1]",
				p.Name, reg.Name, reg.Shard[0], reg.Shard[1])
		}
		for j := 0; j < i; j++ {
			o := p.Regions[j]
			if reg.Shard[0] < o.Shard[1] && o.Shard[0] < reg.Shard[1] {
				return fmt.Errorf("topology: program %s: regions %s and %s have overlapping keyspace shards",
					p.Name, o.Name, reg.Name)
			}
		}
	}
	return nil
}

// Program returns the named traffic program.
func (t Topology) Program(name string) (TrafficProgram, bool) {
	for _, p := range t.Programs {
		if p.Name == name {
			return p, true
		}
	}
	return TrafficProgram{}, false
}

// Defaulted accessors, mirroring the cluster spec convention that zero
// values mean "use the reference setting".

func (s ReplicatedService) WorkloadName() string {
	if s.Workload == "" {
		return "b"
	}
	return s.Workload
}

func (s ReplicatedService) Records() int64 {
	if s.RecordCount == 0 {
		return 20_000
	}
	return s.RecordCount
}

func (s ReplicatedService) QueueCapacity() int {
	if s.QueueCap == 0 {
		return 256
	}
	return s.QueueCap
}

// MinReplicas is the floor the control plane maintains through node
// failures: the autoscaler minimum, or the fixed replica count.
func (s ReplicatedService) MinReplicas() int {
	if s.Autoscaler != nil {
		return s.Autoscaler.Min
	}
	return s.Replicas
}

func (p TrafficProgram) Theta() float64 {
	if p.ZipfTheta == 0 {
		return 0.99
	}
	return p.ZipfTheta
}

// EffectiveRegions returns the program's regions, defaulting to a single
// region covering the whole user keyspace.
func (p TrafficProgram) EffectiveRegions() []Region {
	if len(p.Regions) > 0 {
		return p.Regions
	}
	return []Region{{Name: "global", Weight: 1, Shard: [2]float64{0, 1}}}
}

func (sp Spike) Ramp() float64 {
	if sp.RampFraction == 0 {
		return 0.25
	}
	return sp.RampFraction
}

// Defaulted accessors for the resilience layer, all safe on the
// validated spec.

func (r ResilienceSpec) Attempts() int {
	if r.MaxAttempts == 0 {
		return 1
	}
	return r.MaxAttempts
}

func (r ResilienceSpec) Backoff() int {
	if r.RetryBackoffRounds == 0 {
		return 1
	}
	return r.RetryBackoffRounds
}

func (r ResilienceSpec) Jitter() int {
	if r.RetryJitterRounds == 0 {
		return 1
	}
	return r.RetryJitterRounds
}

func (r ResilienceSpec) BudgetWindow() int {
	if r.BudgetWindowRounds == 0 {
		return 20
	}
	return r.BudgetWindowRounds
}

// StormResilience is the reference resilience configuration the storm
// scenario's "budgeted + breakers + shedding" arm runs: a deadline of
// about one heartbeat round, three attempts with exponential backoff and
// jitter, retries capped at 10% of recent successes, a breaker tripping
// at 50% windowed failures, and replica-side shedding at half the
// balancer's admission window.
func StormResilience() *ResilienceSpec {
	return &ResilienceSpec{
		DeadlineMs:          60,
		MaxAttempts:         3,
		RetryBackoffRounds:  1,
		RetryJitterRounds:   2,
		RetryBudget:         0.1,
		BudgetWindowRounds:  20,
		BreakerFailureRate:  0.5,
		BreakerWindowRounds: 4,
		BreakerMinVolume:    100,
		BreakerOpenRounds:   8,
		BreakerProbes:       16,
		ConcurrencyLimit:    128,
	}
}

// NaiveResilience is the storm scenario's pathological client: the same
// deadline so timeouts fire, one extra attempt, and nothing that could
// stop the feedback loop — no budget, no breaker, no shedding. This is
// the configuration that exhibits metastable retry amplification.
func NaiveResilience() *ResilienceSpec {
	return &ResilienceSpec{
		DeadlineMs:  60,
		MaxAttempts: 4,
	}
}

// StormTopology is the retry-storm scenario: one replicated redis
// frontend with a fixed replica set (no autoscaler — recovery must come
// from the resilience layer, not from capacity growth) driven by a flat
// program with a single violent flash crowd mid-day. The caller injects
// a node crash at the spike's onset and picks the resilience arm; peak
// sizing follows DefaultTopology (~3% of users per second).
//
// The shape is deliberately storm-prone: redis serves on a single event
// loop, so the replicas — not the balancer — are the bottleneck, and the
// admission window is deep enough (QueueCap 8192 ≈ 150ms of single-worker
// service time at the ~18µs measured per-op cost) that queueing delay can
// blow well past the 60ms deadline before the balancer's capacity drop
// kicks in. That is the metastable regime:
// expired requests are server work wasted on clients that already timed
// out, and a naive client stack converts each one into another arrival.
func StormTopology(users int64, daySeconds float64, res *ResilienceSpec) Topology {
	peak := float64(users) * 0.03
	return Topology{
		Services: []ReplicatedService{{
			Name:       "frontend",
			Store:      "redis",
			Workload:   "b",
			Program:    "storm",
			Replicas:   4,
			QueueCap:   8192,
			Resilience: res,
		}},
		Programs: []TrafficProgram{{
			Name:       "storm",
			Users:      users,
			BaseRPS:    peak / 2,
			PeakRPS:    peak,
			DaySeconds: daySeconds,
			Spikes: []Spike{
				{StartSeconds: 0.4 * daySeconds, DurationSeconds: 0.35 * daySeconds,
					Multiplier: 4, RampFraction: 0.15},
			},
		}},
	}
}

// DefaultTopology is the reference traffic topology: one replicated
// memcached frontend driven by a three-region diurnal program with two
// flash crowds, sized off the modeled user population (peak ~3% of users
// issuing a request per second at the compressed-day timescale).
func DefaultTopology(users int64, daySeconds float64) Topology {
	peak := float64(users) * 0.03
	return Topology{
		Services: []ReplicatedService{{
			Name:     "frontend",
			Store:    "memcached",
			Workload: "b",
			Program:  "diurnal",
			Replicas: 2,
			QueueCap: 256,
			Autoscaler: &AutoscalerSpec{
				Min: 2, Max: 6,
				UpQueue: 48, DownQueue: 16,
				UpRounds: 2, DownRounds: 6, CooldownRounds: 10,
			},
		}},
		Programs: []TrafficProgram{{
			Name:       "diurnal",
			Users:      users,
			BaseRPS:    peak / 5,
			PeakRPS:    peak,
			DaySeconds: daySeconds,
			Spikes: []Spike{
				{StartSeconds: 0.33 * daySeconds, DurationSeconds: 0.12 * daySeconds, Multiplier: 2.2},
				{StartSeconds: 0.68 * daySeconds, DurationSeconds: 0.10 * daySeconds, Multiplier: 2.8},
			},
			Regions: []Region{
				{Name: "us", Weight: 0.5, Shard: [2]float64{0, 0.5}},
				{Name: "eu", Weight: 0.3, Shard: [2]float64{0.5, 0.8}},
				{Name: "ap", Weight: 0.2, Shard: [2]float64{0.8, 1}},
			},
		}},
	}
}
