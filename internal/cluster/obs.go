package cluster

import (
	"github.com/holmes-colocation/holmes/internal/obs"
	"github.com/holmes-colocation/holmes/internal/telemetry"
)

// Fleet SLO policy: the burn-rate engine runs unconditionally inside
// Run — its alert stream feeds the reconciler — so these are part of the
// control plane's deterministic behavior, not observability opt-ins.
//
// The latency SLO budgets 5% of queries over the per-query SLO; a page
// needs a 10x burn (>50% of queries violating) sustained across both
// windows, which a healthy colocation run can never reach. The
// availability SLO budgets 1% node-rounds down; one crashed node in a
// small fleet burns 10-20x, so the chaos experiment's scripted crash
// reliably pages while a crash-free run cannot (zero bad units).
// The requests SLO exists only when the topology runs the resilience
// layer: it budgets 5% client-visible failures (shed + expired + dropped
// + lost against completions) and pages at a 10x burn — i.e. >50% of the
// fleet's request outcomes failing across both windows, which is exactly
// the metastable-collapse signature the storm experiment provokes.
// Gating it on the topology keeps every non-resilient run's alert
// stream (and, through Paging, its reconciler and autoscalers)
// byte-identical to before.
const (
	sloLatencyBudget = 0.05
	sloLatencyPage   = 10
	sloLatencyTicket = 2
	sloAvailBudget   = 0.01
	sloAvailPage     = 10
	sloReqBudget     = 0.05
	sloReqPage       = 10
	sloReqTicket     = 2
)

// newBurnEngine builds the fleet SLO engine for a run. Window lengths
// scale with the run so tiny test runs still have a short window inside
// the measured period: short = max(2, rounds/30), long = max(6, rounds/8).
func newBurnEngine(spec Spec, totalRounds int) *obs.BurnEngine {
	short := totalRounds / 30
	if short < 2 {
		short = 2
	}
	long := totalRounds / 8
	if long < 6 {
		long = 6
	}
	cfgs := []obs.SLOConfig{
		{
			Name: "latency", Objective: sloLatencyBudget,
			ShortRounds: short, LongRounds: long,
			PageBurn: sloLatencyPage, TicketBurn: sloLatencyTicket,
			MinUnits: 100,
		},
		{
			Name: "availability", Objective: sloAvailBudget,
			ShortRounds: short, LongRounds: long,
			PageBurn: sloAvailPage,
			MinUnits: int64(2 * spec.Nodes),
		},
	}
	if spec.resilientTopology() {
		cfgs = append(cfgs, obs.SLOConfig{
			Name: "requests", Objective: sloReqBudget,
			ShortRounds: short, LongRounds: long,
			PageBurn: sloReqPage, TicketBurn: sloReqTicket,
			MinUnits: 200,
		})
	}
	return obs.NewBurnEngine(cfgs...)
}

// runTracer records the control plane's pod-lifecycle spans: the causal
// chain admit → place → run → quarantine → evict → requeue → reschedule →
// complete, plus service placement/failover and node crash/reboot. All
// methods are nil-receiver-safe, so the run loop traces unconditionally
// and recording simply vanishes when no observability plane is attached —
// the simulation itself never branches on it.
type runTracer struct {
	rec  *telemetry.SpanRecorder
	hbNs int64
	// tail is the last closed span in each pod's chain (the parent of the
	// next stage); runSpan/requeueSpan are the open interval spans.
	tail        map[string]uint64
	runSpan     map[string]uint64
	requeueSpan map[string]uint64
	crashSpan   map[int]uint64
	breakerSpan map[string]uint64
}

func newRunTracer(p *obs.Plane, hbNs int64) *runTracer {
	if p == nil {
		return nil
	}
	return &runTracer{
		rec:  p.Control(),
		hbNs: hbNs,
		tail: map[string]uint64{}, runSpan: map[string]uint64{},
		requeueSpan: map[string]uint64{}, crashSpan: map[int]uint64{},
		breakerSpan: map[string]uint64{},
	}
}

// roundNs is the control-plane timestamp for decisions taken in round r.
func (t *runTracer) roundNs(r int) int64 { return int64(r) * t.hbNs }

// finishSpan closes the open interval span open[key], if any, at now and
// forgets it, returning its ID.
func finishSpan[K comparable](rec *telemetry.SpanRecorder, open map[K]uint64, key K, now int64) (uint64, bool) {
	id, ok := open[key]
	if ok {
		rec.Finish(id, now)
		delete(open, key)
	}
	return id, ok
}

func (t *runTracer) admit(name string, r int) {
	if t == nil {
		return
	}
	now := t.roundNs(r)
	t.tail[name] = t.rec.Add(telemetry.Span{Kind: telemetry.SpanPodAdmit,
		StartNs: now, EndNs: now, Node: -1, CPU: -1, Name: name})
}

// place records a placement. A pod with an open requeue interval is being
// rescheduled: the requeue closes and the placement is a Reschedule span.
func (t *runTracer) place(name string, r, node int) {
	if t == nil {
		return
	}
	now := t.roundNs(r)
	kind := telemetry.SpanPodPlace
	if id, ok := finishSpan(t.rec, t.requeueSpan, name, now); ok {
		t.tail[name] = id
		kind = telemetry.SpanPodReschedule
	}
	placed := t.rec.Add(telemetry.Span{Kind: kind, Parent: t.tail[name],
		StartNs: now, EndNs: now, Node: node, CPU: -1, Name: name})
	t.tail[name] = placed
	t.runSpan[name] = t.rec.Start(telemetry.Span{Kind: telemetry.SpanPodRun,
		Parent: placed, StartNs: now, Node: node, CPU: -1, Name: name})
}

// evict closes the pod's run interval, backfills the quarantine interval
// (the hot streak that armed the eviction), records the eviction and opens
// the requeue interval that the next placement will close.
func (t *runTracer) evict(name string, r, node, hotStreak int, trendVPI float64) {
	if t == nil {
		return
	}
	now := t.roundNs(r)
	finishSpan(t.rec, t.runSpan, name, now)
	qStart := t.roundNs(r - hotStreak)
	if qStart < 0 {
		qStart = 0
	}
	quarantine := t.rec.Add(telemetry.Span{Kind: telemetry.SpanPodQuarantine,
		Parent: t.tail[name], StartNs: qStart, EndNs: now,
		Node: node, CPU: -1, Name: name, Value: trendVPI})
	evicted := t.rec.Add(telemetry.Span{Kind: telemetry.SpanPodEvict,
		Parent: quarantine, StartNs: now, EndNs: now,
		Node: node, CPU: -1, Name: name, Value: trendVPI})
	t.tail[name] = evicted
	t.requeueSpan[name] = t.rec.Start(telemetry.Span{Kind: telemetry.SpanPodRequeue,
		Parent: evicted, StartNs: now, Node: -1, CPU: -1, Name: name})
}

// requeue opens a requeue interval without an eviction decision — the
// checkpoint-reschedule path when a pod's node died.
func (t *runTracer) requeue(name string, r int, detail string) {
	if t == nil {
		return
	}
	if _, open := t.requeueSpan[name]; open {
		return
	}
	now := t.roundNs(r)
	finishSpan(t.rec, t.runSpan, name, now)
	t.requeueSpan[name] = t.rec.Start(telemetry.Span{Kind: telemetry.SpanPodRequeue,
		Parent: t.tail[name], StartNs: now, Node: -1, CPU: -1,
		Name: name, Detail: detail})
}

func (t *runTracer) complete(name string, r int) {
	if t == nil {
		return
	}
	now := t.roundNs(r)
	finishSpan(t.rec, t.runSpan, name, now)
	t.rec.Add(telemetry.Span{Kind: telemetry.SpanPodComplete,
		Parent: t.tail[name], StartNs: now, EndNs: now,
		Node: -1, CPU: -1, Name: name})
	delete(t.tail, name)
}

// servicePlace records a Guaranteed placement; one closing an open
// requeue interval (the node-lost path) is a failover.
func (t *runTracer) servicePlace(name string, r, node int) {
	if t == nil {
		return
	}
	now := t.roundNs(r)
	kind := telemetry.SpanServicePlace
	if id, ok := finishSpan(t.rec, t.requeueSpan, name, now); ok {
		t.tail[name] = id
		kind = telemetry.SpanServiceFailover
	}
	t.tail[name] = t.rec.Add(telemetry.Span{Kind: kind, Parent: t.tail[name],
		StartNs: now, EndNs: now, Node: node, CPU: -1, Name: name})
}

// replicaScaleUp records an autoscaler grow decision for a service;
// Value carries the per-replica queue depth that armed it.
func (t *runTracer) replicaScaleUp(svc string, r int, depth float64) {
	if t == nil {
		return
	}
	now := t.roundNs(r)
	t.rec.Add(telemetry.Span{Kind: telemetry.SpanReplicaScaleUp,
		StartNs: now, EndNs: now, Node: -1, CPU: -1, Name: svc, Value: depth})
}

// replicaScaleDown records an autoscaler shrink decision: the named
// replica starts draining on its node.
func (t *runTracer) replicaScaleDown(name string, r, node int, depth float64) {
	if t == nil {
		return
	}
	now := t.roundNs(r)
	t.rec.Add(telemetry.Span{Kind: telemetry.SpanReplicaScaleDown,
		StartNs: now, EndNs: now, Node: node, CPU: -1, Name: name, Value: depth})
}

// replicaRetire records a replica leaving the fleet — a drained
// scale-down or a node loss (the detail says which).
func (t *runTracer) replicaRetire(name string, r, node int, detail string) {
	if t == nil {
		return
	}
	now := t.roundNs(r)
	t.rec.Add(telemetry.Span{Kind: telemetry.SpanReplicaRetire,
		StartNs: now, EndNs: now, Node: node, CPU: -1, Name: name, Detail: detail})
}

// breakerOpen starts the interval span covering one open/half-open
// episode of a service's circuit breaker; value carries the windowed
// failure rate at the trip. A re-trip during half-open extends the same
// episode rather than stacking spans.
func (t *runTracer) breakerOpen(svc string, r int, rate float64) {
	if t == nil {
		return
	}
	if _, ok := t.breakerSpan[svc]; ok {
		return
	}
	t.breakerSpan[svc] = t.rec.Start(telemetry.Span{Kind: telemetry.SpanBreakerOpen,
		StartNs: t.roundNs(r), Node: -1, CPU: -1, Name: svc, Value: rate})
}

// breakerClose finishes the episode when the breaker returns to closed.
func (t *runTracer) breakerClose(svc string, r int) {
	if t == nil {
		return
	}
	finishSpan(t.rec, t.breakerSpan, svc, t.roundNs(r))
}

func (t *runTracer) nodeCrash(node, r int) {
	if t == nil {
		return
	}
	t.crashSpan[node] = t.rec.Start(telemetry.Span{Kind: telemetry.SpanNodeCrash,
		StartNs: t.roundNs(r), Node: node, CPU: -1})
}

func (t *runTracer) nodeReboot(node, r int) {
	if t == nil {
		return
	}
	now := t.roundNs(r)
	finishSpan(t.rec, t.crashSpan, node, now)
	t.rec.Add(telemetry.Span{Kind: telemetry.SpanNodeReboot,
		StartNs: now, EndNs: now, Node: node, CPU: -1})
}

// fleetRollup appends this round's fleet aggregates to the plane's store.
type fleetRollup struct {
	store *obs.Store
	hbNs  int64
}

func newFleetRollup(p *obs.Plane, hbNs int64) *fleetRollup {
	if p == nil {
		return nil
	}
	return &fleetRollup{store: p.Store, hbNs: hbNs}
}

func (f *fleetRollup) record(r int, states []NodeState, down []bool, goodQ, badQ int64) {
	if f == nil {
		return
	}
	now := int64(r) * f.hbNs
	var vpi, util, p99 float64
	var lendable, up, measured int
	for i, st := range states {
		if down[i] || st.Dead {
			continue
		}
		up++
		vpi += st.TrendVPI
		util += st.HB.LCUtil
		lendable += st.HB.Lendable
		if st.HB.P99Ns > 0 {
			p99 += st.HB.P99Ns
			measured++
		}
	}
	if up > 0 {
		vpi /= float64(up)
		util /= float64(up)
	}
	f.store.Series("fleet/mean_vpi").Append(now, vpi)
	f.store.Series("fleet/lc_util").Append(now, util)
	f.store.Series("fleet/lendable_siblings").Append(now, float64(lendable))
	f.store.Series("fleet/nodes_up").Append(now, float64(up))
	if measured > 0 {
		f.store.Series("fleet/service_p99_us").Append(now, p99/float64(measured)/1e3)
	}
	if goodQ+badQ > 0 {
		f.store.Series("fleet/slo_bad_fraction").Append(now,
			float64(badQ)/float64(goodQ+badQ))
	}
}
