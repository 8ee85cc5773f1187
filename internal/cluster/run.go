package cluster

import (
	"fmt"
	"sort"

	"github.com/holmes-colocation/holmes/internal/batch"
	"github.com/holmes-colocation/holmes/internal/faults"
	"github.com/holmes-colocation/holmes/internal/obs"
	"github.com/holmes-colocation/holmes/internal/runner"
)

// Run executes the cluster described by spec: boot the fleet, drive it
// through heartbeat rounds, then collect the result. Every round runs the
// same phases in the same order; see (*run).round.
func Run(spec Spec, opt RunOptions) (*Result, error) {
	x, err := newRun(spec, opt)
	if err != nil {
		return nil, err
	}
	defer x.stop()
	for r := 0; r < x.totalRounds; r++ {
		if err := x.round(r); err != nil {
			return nil, err
		}
	}
	return x.collect(), nil
}

// run is one cluster run's control-plane state: the fleet, the registry,
// the pending queue and the bookings, plus the fixed per-run machinery
// (fault schedule, failure detector, burn-rate engine, traffic plane).
// Its methods are the round phases; all of them run serially except the
// node advance, which fans out on the worker pool.
type run struct {
	spec    Spec
	opt     RunOptions
	placer  Placer
	kinds   []batch.Kind
	workers int

	hbNs                       int64
	warmupRounds, totalRounds  int
	containers, threads, units int // the batch stream's pod shape

	tel clusterTelemetry
	// The burn-rate engine always runs: its alert stream modulates the
	// reconciler, so it is control-plane behavior, not optional recording.
	// The tracer and rollup are the recording side and no-op without a
	// plane.
	burn   *obs.BurnEngine
	tracer *runTracer
	rollup *fleetRollup
	// The traffic plane (nil without a topology): arrival processes, the
	// load-balancer tier and the autoscalers, all driven serially from
	// the round loop.
	tc *trafficController

	// The node-fault schedule, fixed up front from per-node seed streams:
	// what happens to node i never depends on fleet size changes above i
	// or on the advance parallelism. Nil without node chaos.
	schedule [][]faults.RoundFault
	// fd is the failure detector; nil when degradation is disabled and
	// the control plane schedules blind.
	fd *failureDetector

	nodes    []*Node
	down     []bool  // crashed, simulation frozen
	rebootAt []int   // round the node comes back (-1: never)
	gen      []int   // boot generation per node slot
	prevQ    []int64 // last heartbeat's cumulative query count
	prevBad  []int64 // last heartbeat's cumulative SLO-violating count

	// The registry: one state per node, refreshed each round. All
	// mutations go through reg so its shard aggregates stay exact; states
	// aliases the backing slice for the read-only passes (rollups,
	// traffic reconciliation, the reconciler).
	reg    *Registry
	states []NodeState

	// Level-of-detail: with LoD "auto" (and no node-fault schedule), a
	// node that is unoccupied, not hot, not suspect and VPI-quiet skips
	// both its machine advance and its heartbeat this round. Its registry
	// entry freezes, the failure detector is told the silence is policy,
	// and the skipped simulated time accrues as lag that is paid back —
	// on the cheap idle fast-forward path — only if placement later
	// targets the node. Lag never needs settling at run end: a node that
	// stayed quiescent to the finish contributes exactly what it would
	// have simulated — zero busy time, zero queries, zero completions.
	lodAuto bool
	lagNs   []int64
	lodSkip []bool

	queue       []*pendingPod
	arrived     int
	serviceNode map[string]int
	placed      map[string]*placedPod
	placeSeq    int

	res *Result
}

// newRun validates the spec, builds the per-run machinery, boots the
// fleet and queues the initial pods: services first (placed in round 0),
// then the topology's replicas.
func newRun(spec Spec, opt RunOptions) (*run, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	placer, err := NewPlacer(spec.placer())
	if err != nil {
		return nil, err
	}
	kinds, err := spec.Batch.kinds()
	if err != nil {
		return nil, err
	}
	x := &run{
		spec:        spec,
		opt:         opt,
		placer:      placer,
		kinds:       kinds,
		workers:     opt.Workers,
		hbNs:        spec.heartbeatNs(),
		lodAuto:     spec.lodAuto(),
		serviceNode: map[string]int{},
		placed:      map[string]*placedPod{},
		res:         &Result{Spec: spec},
	}
	if x.workers < 1 {
		x.workers = 1
	}
	warmup, measure := spec.rounds()
	x.warmupRounds, x.totalRounds = warmup, warmup+measure
	x.containers, x.threads, x.units = spec.Batch.podSpecShape()
	x.tel.resolve(opt.Telemetry)
	x.burn = newBurnEngine(spec, x.totalRounds)
	x.tracer = newRunTracer(opt.Obs, x.hbNs)
	x.rollup = newFleetRollup(opt.Obs, x.hbNs)
	if x.tc, err = newTrafficController(spec, x.tracer, opt.Obs, x.hbNs, x.warmupRounds); err != nil {
		return nil, err
	}
	if spec.Chaos != nil && spec.Chaos.Nodes.Enabled() {
		x.schedule = spec.Chaos.Nodes.Schedule(spec.Seed, spec.Nodes, x.totalRounds)
	}
	if !spec.DisableDegradation {
		x.fd = newFailureDetector(spec.Nodes,
			float64(spec.suspectRounds()), float64(spec.deadRounds()))
	}
	n := spec.Nodes
	x.nodes = make([]*Node, n)
	x.down = make([]bool, n)
	x.rebootAt = make([]int, n)
	x.gen = make([]int, n)
	x.prevQ = make([]int64, n)
	x.prevBad = make([]int64, n)
	x.lagNs = make([]int64, n)
	x.lodSkip = make([]bool, n)

	// Boot the fleet. Nodes are independent, so boot fans out on the
	// worker pool; each node's seed derives from (spec.Seed, node ID).
	boots := make([]func() error, n)
	for i := range boots {
		i := i
		boots[i] = func() error {
			nd, err := bootNode(spec, i, 0, opt.Telemetry, opt.Obs.NodeRecorder(i))
			x.nodes[i] = nd
			return err
		}
	}
	if err := runner.Run(x.workers, boots); err != nil {
		x.stop()
		return nil, err
	}

	x.reg = newRegistry(n, defaultShardSize)
	x.states = x.reg.States()
	for i := range x.states {
		x.reg.Reset(i, NodeState{ID: i, HB: x.nodes[i].Heartbeat()})
	}
	for _, ss := range spec.Services {
		x.queue = append(x.queue, servicePending(ss, 0))
		x.tracer.admit(ss.Name, 0)
	}
	for _, p := range x.tc.initialPods() {
		x.queue = append(x.queue, p)
		x.tracer.admit(p.req.Name, 0)
	}
	return x, nil
}

// stop halts every booted node.
func (x *run) stop() {
	for _, n := range x.nodes {
		if n != nil {
			n.Stop()
		}
	}
}

// round runs one heartbeat round's phases in order.
func (x *run) round(r int) error {
	if err := x.rebootsAndCrashes(r); err != nil {
		return err
	}
	x.beginMeasurement(r)
	x.batchArrivals(r)
	if err := x.placement(r); err != nil {
		return err
	}
	// Open-loop arrivals for this round, routed through the balancer
	// tier. Runs after placement (fresh replicas serve immediately) and
	// before the advance, so every request lands inside the round.
	x.tc.inject(r)
	x.decideFidelity()
	if err := x.advance(r); err != nil {
		return err
	}
	if err := x.reap(r); err != nil {
		return err
	}
	goodQ, badQ, err := x.heartbeats(r)
	if err != nil {
		return err
	}
	alerts := x.feedSLO(r, goodQ, badQ)
	x.postRound(r, alerts, goodQ, badQ)
	return x.reconcile(r)
}

// rebootsAndCrashes brings back nodes whose downtime ends this round,
// then applies the round's freshly scheduled crashes.
func (x *run) rebootsAndCrashes(r int) error {
	for i := range x.nodes {
		if !x.down[i] || x.rebootAt[i] != r {
			continue
		}
		// Harvest the dead incarnation's degradation counters before it
		// is replaced, then boot a fresh machine under a
		// generation-salted seed.
		st := x.nodes[i].DaemonStats()
		x.res.SafeModeEntries += st.SafeModeEntries
		x.res.RescanRepairs += st.RescanRepairs
		x.gen[i]++
		nn, err := bootNode(x.spec, i, x.gen[i], x.opt.Telemetry, x.opt.Obs.NodeRecorder(i))
		if err != nil {
			return err
		}
		x.nodes[i] = nn
		x.down[i] = false
		x.rebootAt[i] = -1
		x.res.Reboots++
		x.tracer.nodeReboot(i, r)
		// The fresh incarnation's SLI counters restart from zero.
		x.prevQ[i], x.prevBad[i] = 0, 0
		if x.fd != nil {
			// Everything booked on the old incarnation is gone:
			// reschedule from checkpoints, fail services over.
			x.nodeLost(i, r)
			x.fd.reset(i)
		}
		if x.states[i].Dead {
			x.res.NodesRejoined++
		}
		x.reg.Reset(i, NodeState{ID: i, HB: nn.Heartbeat()})
	}
	if x.schedule == nil {
		return nil
	}
	for i := range x.nodes {
		f := x.schedule[i][r]
		if !f.Crash || x.down[i] {
			continue
		}
		if x.spec.Chaos.Nodes.SpareServiceNodes && len(x.nodes[i].services) > 0 {
			continue
		}
		x.down[i] = true
		x.res.Crashes++
		x.tracer.nodeCrash(i, r)
		if f.DownRounds > 0 {
			x.rebootAt[i] = r + f.DownRounds
		} else {
			x.rebootAt[i] = -1
		}
	}
	return nil
}

// beginMeasurement opens every live node's measurement window at the
// warmup boundary.
func (x *run) beginMeasurement(r int) {
	if r != x.warmupRounds {
		return
	}
	for i, n := range x.nodes {
		if !x.down[i] {
			n.BeginMeasurement()
		}
	}
}

// batchArrivals admits this round's batch pods (PodsPerRound <= 0: all at
// once).
func (x *run) batchArrivals(r int) {
	b := x.spec.Batch
	perRound := b.PodsPerRound
	if perRound <= 0 {
		perRound = b.Pods
	}
	for a := 0; a < perRound && x.arrived < b.Pods; a++ {
		name := fmt.Sprintf("batch-%03d", x.arrived)
		x.queue = append(x.queue, &pendingPod{
			req:        PodRequest{Name: name, Threads: x.containers * x.threads},
			kind:       x.kinds[x.arrived%len(x.kinds)],
			containers: x.containers,
			threads:    x.threads,
			units:      x.units,
		})
		x.tracer.admit(name, r)
		x.arrived++
	}
}

// placement walks the pending queue in order against the current
// registry. Pods that find no node retry next round, up to
// maxPlaceRetries; a service no live node could ever hold is a spec error.
func (x *run) placement(r int) error {
	var waiting []*pendingPod
	for _, p := range x.queue {
		if p.notBefore > r {
			waiting = append(waiting, p)
			continue
		}
		target := x.placer.Place(x.reg, p.req)
		if target < 0 {
			if p.req.Guaranteed && !x.reg.AnyNodeCouldFit(p.req) {
				return fmt.Errorf("cluster: no node fits service %s", p.req.Name)
			}
			p.retries++
			if p.retries > maxPlaceRetries {
				if p.svc != nil {
					return fmt.Errorf("cluster: service %s unplaced after %d rounds",
						p.req.Name, maxPlaceRetries)
				}
				if p.rep != nil {
					x.tc.placementFailed(p)
				} else {
					x.res.BatchFailed++
				}
				x.res.FailedPlacements++
				x.tel.inc(x.tel.failed)
				continue
			}
			p.notBefore = r + 1
			waiting = append(waiting, p)
			continue
		}
		if err := x.bind(p, target, r); err != nil {
			return err
		}
	}
	x.queue = waiting
	return nil
}

// bind launches a placed pod on its target node and books it in the
// registry, so later decisions in the same pass see the capacity taken.
func (x *run) bind(p *pendingPod, target, r int) error {
	// A fast-forwarded target first pays back its skipped rounds so the
	// pod lands on a machine aligned with fleet time.
	n := x.nodes[target]
	if x.lagNs[target] > 0 {
		n.Advance(x.lagNs[target])
		x.lagNs[target] = 0
	}
	switch {
	case p.rep != nil:
		if err := x.tc.place(p, target, n); err != nil {
			return err
		}
	case p.svc != nil:
		if err := n.PlaceService(*p.svc); err != nil {
			return err
		}
		x.serviceNode[p.svc.Name] = target
	default:
		if err := n.PlaceBatch(p.req.Name, p.kind, p.containers, p.threads, p.units); err != nil {
			return err
		}
		x.res.PlacedBatch++
		x.placed[p.req.Name] = &placedPod{pending: p, node: target, seq: x.placeSeq}
		x.placeSeq++
	}
	x.reg.Update(target, func(st *NodeState) {
		if p.req.Guaranteed {
			st.HB.ServicePods++
			st.HB.ServiceThreads += p.req.Threads
		} else {
			st.HB.BatchPods++
			st.HB.BatchThreads += p.req.Threads
		}
	})
	if p.req.Guaranteed {
		x.tel.inc(x.tel.placedGuaranteed)
		x.tracer.servicePlace(p.req.Name, r, target)
	} else {
		x.tel.inc(x.tel.placedBestEffort)
		x.tracer.place(p.req.Name, r, target)
	}
	return nil
}

// decideFidelity picks the round's fast-forwarded nodes under LoD auto,
// after placement so fresh targets count as occupied. The check reads
// only the registry entry and the node's pod census, both serial state:
// the skip set is deterministic at any worker count.
func (x *run) decideFidelity() {
	if !x.lodAuto {
		return
	}
	for i := range x.nodes {
		x.lodSkip[i] = false
		if x.down[i] {
			continue
		}
		st := &x.states[i]
		if !st.Dead && !st.Suspect && st.Hot == 0 &&
			st.TrendVPI < lodQuietVPI && !x.nodes[i].Occupied() {
			x.lodSkip[i] = true
			x.lagNs[i] += x.hbNs
			x.res.LoDSkips++
		}
	}
}

// simulated reports whether node i advances (and so reaps and
// heartbeats) this round: not crashed, not fast-forwarded.
func (x *run) simulated(i int) bool { return !x.down[i] && !x.lodSkip[i] }

// advance moves every simulated node one heartbeat period, fanned out on
// the worker pool. Nodes share nothing mid-round, so the outcome is
// identical at any worker count. Crashed nodes are frozen; slow nodes
// make proportionally less simulated progress (straggler semantics
// without breaking the lockstep rounds); fast-forwarded nodes bank the
// round as lag instead of simulating it.
func (x *run) advance(r int) error {
	var tasks []func() error
	for i, n := range x.nodes {
		if !x.simulated(i) {
			continue
		}
		n, dur := n, x.hbNs
		if x.schedule != nil {
			if f := x.schedule[i][r]; f.Slow > 1 {
				dur = int64(float64(x.hbNs) / f.Slow)
				x.res.SlowRounds++
			}
		}
		tasks = append(tasks, func() error { n.Advance(dur); return nil })
	}
	return runner.Run(x.workers, tasks)
}

// reap collects finished batch pods. Fast-forwarded nodes are unoccupied
// by construction — nothing to reap.
func (x *run) reap(r int) error {
	for i, n := range x.nodes {
		if !x.simulated(i) {
			continue
		}
		done, err := n.ReapFinished()
		if err != nil {
			return err
		}
		for _, name := range done {
			delete(x.placed, name)
			x.res.BatchDoneTotal++
			if r >= x.warmupRounds {
				x.res.BatchCompleted++
			}
			x.tel.inc(x.tel.completed)
			x.tracer.complete(name, r)
		}
	}
	return nil
}

// heartbeats refreshes the registry from the round's delivered
// heartbeats and runs the failure detector over the missing ones. It
// returns the round's latency SLI: good and SLO-violating query deltas
// summed over the fleet.
func (x *run) heartbeats(r int) (goodQ, badQ int64, err error) {
	for i := range x.nodes {
		switch {
		case x.down[i] || (x.schedule != nil && x.schedule[i][r].LoseHeartbeat):
			x.missedHeartbeat(i, r)
		case x.lodSkip[i]:
			// Fast-forwarded: the silence is the control plane's own
			// policy, so the failure detector treats it as a delivered
			// heartbeat and the registry entry stays frozen.
			if x.fd != nil {
				x.fd.observe(i, true)
			}
		default:
			dq, db, err := x.deliverHeartbeat(i, r)
			if err != nil {
				return 0, 0, err
			}
			goodQ += dq - db
			badQ += db
		}
	}
	return goodQ, badQ, nil
}

// missedHeartbeat handles a node with no heartbeat this round: the
// registry keeps its stale entry and the failure detector accrues
// suspicion, declaring the node dead (and rescheduling its bookings)
// once it crosses the threshold.
func (x *run) missedHeartbeat(i, r int) {
	if !x.down[i] {
		x.res.HeartbeatsMissed++
	}
	if x.fd == nil {
		return
	}
	x.fd.observe(i, false)
	died := false
	x.reg.Update(i, func(st *NodeState) {
		st.MissedHB++
		if !st.Dead {
			st.Suspect = x.fd.suspect(i)
			if x.fd.dead(i) {
				st.Dead = true
				st.Suspect = true
				died = true
			}
		}
	})
	if died {
		x.res.NodesDied++
		x.nodeLost(i, r)
	}
}

// deliverHeartbeat folds node i's fresh heartbeat into the registry and
// returns its latency SLI deltas (queries, SLO-violating queries).
func (x *run) deliverHeartbeat(i, r int) (dq, db int64, err error) {
	if x.fd != nil && x.states[i].Dead {
		if err := x.rejoin(i); err != nil {
			return 0, 0, err
		}
	}
	if x.fd != nil {
		x.fd.observe(i, true)
	}
	hb := x.nodes[i].Heartbeat()
	dq, db = sliDelta(hb.Queries, hb.SLOBad, x.prevQ[i], x.prevBad[i])
	x.prevQ[i], x.prevBad[i] = hb.Queries, hb.SLOBad
	// Trend smooths the heartbeat VPI one more time at the round scale: a
	// single bursty heartbeat cannot arm the reconciler, only a node that
	// keeps reporting interference.
	x.reg.Update(i, func(st *NodeState) {
		if x.fd != nil {
			st.MissedHB = 0
			st.Suspect = false
		}
		st.TrendVPI += trendAlpha * (hb.SmoothedVPI - st.TrendVPI)
		if st.TrendVPI >= x.spec.evictVPI() {
			st.Hot++
		} else {
			st.Hot = 0
		}
		st.HB = hb
	})
	x.tel.gaugeVPI(i, hb.SmoothedVPI)
	if r >= x.warmupRounds && x.states[i].TrendVPI > x.res.PeakSmoothedVPI {
		x.res.PeakSmoothedVPI = x.states[i].TrendVPI
	}
	return dq, db, nil
}

// rejoin readmits a node declared dead that is talking again — a false
// positive (the schedule lost its heartbeats, the node kept going). Its
// pods were already re-placed elsewhere; fence the zombies before
// readmitting it to the registry.
func (x *run) rejoin(i int) error {
	keep := map[string]bool{}
	for name, pp := range x.placed {
		if pp.node == i {
			keep[name] = true
		}
	}
	fenced, err := x.nodes[i].Fence(keep, func(svc string) bool {
		idx, ok := x.serviceNode[svc]
		return (ok && idx == i) || x.tc.keepsReplica(svc, i)
	})
	if err != nil {
		return err
	}
	x.res.FencedPods += fenced
	x.res.NodesRejoined++
	x.fd.reset(i)
	x.reg.Reset(i, NodeState{ID: i})
	return nil
}

// nodeLost reschedules everything the control plane had booked on a
// node it now considers gone: BestEffort pods resume elsewhere from
// their last heartbeat checkpoint, services fail over to a fresh
// instance, and the traffic plane replaces lost replicas. Only called
// with degradation enabled.
func (x *run) nodeLost(i, r int) {
	var names []string
	for name, pp := range x.placed {
		if pp.node == i {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		p := x.placed[name].pending
		delete(x.placed, name)
		x.tracer.requeue(name, r, "node-lost")
		done := 0
		for _, prog := range x.states[i].HB.Progress {
			if prog.Name == name {
				done = prog.Units
			}
		}
		// Work since the last heartbeat is lost — that is the price of
		// checkpointing at heartbeat granularity.
		p.resumeFrom(done)
		p.notBefore = r + 1
		p.retries = 0
		x.queue = append(x.queue, p)
		x.res.CheckpointRequeues++
	}
	var svcs []string
	for name, idx := range x.serviceNode {
		if idx == i {
			svcs = append(svcs, name)
		}
	}
	sort.Strings(svcs)
	for _, name := range svcs {
		delete(x.serviceNode, name)
		x.tracer.requeue(name, r, "failover")
		for _, ss := range x.spec.Services {
			if ss.Name == name {
				x.queue = append(x.queue, servicePending(ss, r+1))
			}
		}
		x.res.ServiceFailovers++
	}
	// Replicas on the lost node: their in-flight requests are gone
	// (accounted as lost), and the traffic plane queues replacements up
	// to each service's minimum.
	x.admit(x.tc.nodeLost(i, r), r)
}

// sliDelta turns cumulative query and SLO-violating counters into the
// round's deltas for the burn-rate engine. The counters restart on
// measurement reset and reboot, so deltas clamp at zero rather than going
// negative, and the violating delta never exceeds the total.
func sliDelta(q, bad, prevQ, prevBad int64) (dq, db int64) {
	dq = max(q-prevQ, 0)
	return dq, min(max(bad-prevBad, 0), dq)
}

// admit queues control-plane-generated pods (replica replacements and
// scale-ups) for placement from the next round.
func (x *run) admit(pods []*pendingPod, r int) {
	for _, p := range pods {
		p.notBefore = r + 1
		x.queue = append(x.queue, p)
		x.tracer.admit(p.req.Name, r)
	}
}

// feedSLO feeds the fleet SLO engine — latency from the round's query
// deltas, availability from node-rounds lost to crashes or death
// verdicts — and returns the resulting alert transitions. Both SLIs are
// deterministic functions of the round's state, so the alert stream is
// identical at any worker count.
func (x *run) feedSLO(r int, goodQ, badQ int64) []obs.Alert {
	roundNs := int64(r) * x.hbNs
	var nodesBad int64
	for i := range x.nodes {
		if x.down[i] || x.states[i].Dead {
			nodesBad++
		}
	}
	alerts := x.burn.Observe("latency", r, roundNs, goodQ, badQ)
	return append(alerts,
		x.burn.Observe("availability", r, roundNs, int64(x.spec.Nodes)-nodesBad, nodesBad)...)
}

// postRound runs the traffic plane's reconciliation — balancer health
// and queue estimates, drained-replica retirement, the resilience round
// step, the autoscaler decisions — then publishes the round's alerts and
// records the fleet rollup. Scale-ups enter the placement queue for next
// round; requests-SLO transitions publish with the round's other alerts.
func (x *run) postRound(r int, alerts []obs.Alert, goodQ, badQ int64) {
	pods, reqAlerts := x.tc.postRound(r, x.nodes, x.states, x.down, x.burn)
	publishAlerts(x.opt.Telemetry, x.opt.Obs, append(alerts, reqAlerts...))
	x.rollup.record(r, x.states, x.down, goodQ, badQ)
	x.admit(pods, r)
}

// reconcile drains one BestEffort pod per persistently hot node. While a
// page-severity alert is active the fleet is burning error budget too
// fast for patience: the hot-streak requirement drops to a single round
// so interfered nodes drain immediately.
func (x *run) reconcile(r int) error {
	// The registry's incremental hot count is an O(1) early-out: no hot
	// node anywhere, nothing to scan or sort.
	if x.reg.HotNodes() == 0 {
		return nil
	}
	hot := x.spec.hotRounds()
	if x.burn.Paging() && hot > 1 {
		hot = 1
	}
	for _, ev := range reconcileDecisions(x.states, x.placed, hot, x.spec.maxEvictions()) {
		if x.down[ev.node] || x.states[ev.node].Dead {
			// The eviction RPC cannot reach the node; the detector (or a
			// reboot) will deal with its pods.
			continue
		}
		n := x.nodes[ev.node]
		pp := x.placed[ev.pod]
		if !n.HasBatch(ev.pod) {
			// Stale booking: the node rebooted under the control plane's
			// feet (degradation off) and the pod is gone.
			delete(x.placed, ev.pod)
			continue
		}
		done := n.BatchUnitsDone(ev.pod)
		if err := n.EvictBatch(ev.pod); err != nil {
			return err
		}
		x.tracer.evict(ev.pod, r, ev.node, x.states[ev.node].Hot, x.states[ev.node].TrendVPI)
		// Re-arm: the node must stay hot for another full streak before
		// its next eviction, so draining is paced, not a stampede.
		x.reg.Update(ev.node, func(st *NodeState) { st.Hot = 0 })
		delete(x.placed, ev.pod)
		x.res.Evictions++
		x.tel.inc(x.tel.evictions)
		p := pp.pending
		// Checkpoint: the pod resumes from the work it already finished,
		// so an eviction costs rescheduling latency, not lost cycles.
		p.resumeFrom(done)
		p.evictions++
		p.notBefore = r + 1 + requeueBackoff(p.evictions)
		p.retries = 0
		x.queue = append(x.queue, p)
		x.res.Requeues++
		x.tel.inc(x.tel.requeues)
	}
	return nil
}

// collect assembles the result. Service order follows the spec for
// stable rendering.
func (x *run) collect() *Result {
	res := x.res
	res.Rounds = x.totalRounds
	windowNs := int64(x.totalRounds-x.warmupRounds) * x.hbNs
	slo := x.spec.sloNs()
	var violations, queries float64
	measuredServices := 0
	for _, ss := range x.spec.Services {
		sr := ServiceResult{Name: ss.Name, Store: ss.Store,
			Workload: orDefault(ss.Workload, "a"), Node: -1, Lost: true}
		idx, booked := x.serviceNode[ss.Name]
		var s *nodeService
		if booked {
			s = x.nodes[idx].services[ss.Name]
		}
		if s == nil {
			// The service's node died and no failover landed before the
			// run ended: worst-case outcome, reported as lost.
			res.Services = append(res.Services, sr)
			continue
		}
		lat := s.svc.Latencies()
		sr.Node, sr.Lost = idx, false
		sr.Queries, sr.Summary, sr.SLOViolations = lat.Count(), lat.Summarize(), lat.FractionAbove(slo)
		res.Services = append(res.Services, sr)
		measuredServices++
		res.MeanP99 += sr.Summary.P99
		if sr.Summary.P99 > res.WorstP99 {
			res.WorstP99 = sr.Summary.P99
		}
		violations += sr.SLOViolations * float64(sr.Queries)
		queries += float64(sr.Queries)
	}
	if measuredServices > 0 {
		res.MeanP99 /= float64(measuredServices)
	}
	if queries > 0 {
		res.SLOViolationRatio = violations / queries
	}
	for _, n := range x.nodes {
		res.ClusterUtil += n.Utilization(windowNs)
	}
	res.ClusterUtil /= float64(len(x.nodes))
	for _, pp := range x.placed {
		if pp.pending.evictions >= x.spec.maxEvictions() {
			res.PinnedPods++
		}
	}
	// Conservation accounting: where every admitted batch pod ended up.
	res.BatchArrived = x.arrived
	res.BatchRunning = len(x.placed)
	for _, p := range x.queue {
		if !p.req.Guaranteed {
			res.BatchQueued++
		}
	}
	// Fleet-wide degradation counters from the surviving incarnations
	// (crashed-and-replaced ones were harvested at reboot).
	for _, n := range x.nodes {
		st := n.DaemonStats()
		res.SafeModeEntries += st.SafeModeEntries
		res.RescanRepairs += st.RescanRepairs
	}
	res.PageAlerts = x.burn.Pages()
	res.TicketAlerts = x.burn.Tickets()
	res.Alerts = x.burn.Alerts()
	x.tc.collect(res, x.nodes, x.down)
	return res
}
