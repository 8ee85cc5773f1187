package cluster

import (
	"fmt"
	"sort"
	"strings"

	"github.com/holmes-colocation/holmes/internal/lcservice"
	"github.com/holmes-colocation/holmes/internal/obs"
	"github.com/holmes-colocation/holmes/internal/rng"
	"github.com/holmes-colocation/holmes/internal/scenario"
	"github.com/holmes-colocation/holmes/internal/stats"
	"github.com/holmes-colocation/holmes/internal/trace"
	"github.com/holmes-colocation/holmes/internal/traffic"
	"github.com/holmes-colocation/holmes/internal/ycsb"
)

// trafficController is the control-plane side of the open-loop traffic
// plane: it compiles the spec's topology into arrival processes, routes
// each round's arrivals through the per-service balancers, reconciles
// queue estimates against replica completion counters, and runs the
// horizontal autoscalers. Every step executes serially inside the round
// loop against control-plane state, so — like placement and
// reconciliation — the traffic plane is byte-identical at any worker
// count. All methods are nil-receiver-safe: a spec without a topology
// simply has no traffic plane.
//
// When a service carries a ResilienceSpec the controller also runs the
// request-path resilience layer: per-request deadlines detected at the
// replicas, client-side retries in round-granular cohorts under a retry
// budget, a per-service circuit breaker gating every presentation, and
// replica-side load shedding. The conservation identity extends to
//
//	arrivals = completions + drops + shed + expired + lost + in-flight
//
// with retries a separate, deliberately non-conserved amplification
// counter (every retry is a fresh arrival; the attempt it replaces was
// already accounted as shed, expired, dropped or lost).
type trafficController struct {
	hbNs   int64
	warmup int
	sloNs  float64
	tracer *runTracer
	store  *obs.Store // nil without an observability plane

	services  []*trafficService
	resilient bool // any service runs the resilience layer

	// Fleet-utilization accounting (whole-node busy cycles per round,
	// split by spike/trough classification of the round).
	nodeRef    []*Node
	prevBusy   []float64
	freqGHz    float64
	cpusPer    int
	roundSpike bool

	spikeUtilSum, troughUtilSum float64
	spikeRounds, troughRounds   int

	// Per-round fleet series for verdicts that need goodput trajectories
	// (the storm experiment's recovery bound): first-attempt arrivals,
	// released retries and observed completions, indexed by round.
	roundArrivals    []int64
	roundRetries     []int64
	roundCompletions []int64
	curFirst         int64
	curRetries       int64
}

// trafficService is one replicated service's control-plane state.
type trafficService struct {
	spec scenario.ReplicatedService
	prog scenario.TrafficProgram
	proc *traffic.Process
	gen  *traffic.OpGen
	bal  *traffic.Balancer
	sc   *traffic.Autoscaler
	src  *rng.Source // intra-round arrival offsets

	replicas map[string]*trafficReplica
	nextIdx  int
	pending  int // replica pods queued but not yet placed

	// Request-path resilience (zero-valued and inert without a
	// ResilienceSpec on the service).
	resilient  bool
	deadlineNs int64
	attempts   int
	policy     traffic.RetryPolicy
	budget     *traffic.RetryBudget
	breaker    *traffic.Breaker
	retryQ     traffic.RetryQueue
	retrySrc   *rng.Source // jitter draws, one stream per service
	// failsByA accumulates this round's client-visible retryable
	// failures by the attempt that suffered them: admission drops at
	// inject, shed/expired deltas at reconcile, write-offs at node loss.
	// postRound converts it into retry cohorts and resets it.
	failsByA  [traffic.MaxAttempts]int64
	retries   int64 // retry presentations (arrivals beyond the first try)
	exhausted int64 // failures past the attempt cap
	// Previous-round cumulative counters for per-round deltas.
	prevDrops        int64
	prevDropsBreaker int64
	prevLost         int64

	// Admission-window queue signal, captured at the end of inject: the
	// per-service outstanding depth (carried backlog + this round's
	// dispatches) and the routable count it spread over. Post-reconcile
	// depth is ~0 whenever replicas keep up, so this is the congestion
	// signal the autoscaler keys on.
	lastDemand   int64
	lastRoutable int

	// Accounting for replicas no longer registered (retired or lost).
	retiredCompleted int64
	retiredShed      int64
	retiredExpired   int64
	lost             int64
	failedPlacements int

	// Measured-window SLI deltas split by the round's spike status.
	spikeGood, spikeBad   int64
	troughGood, troughBad int64

	peakReplicas int
}

// trafficReplica is one replica booking. It implements traffic.Replica:
// Submit schedules the request's execution on the replica's node at
// offsetNs into the node's current round (node-local time, so slow or
// rebooted nodes keep a coherent clock).
//
// Outcome accounting is per attempt: the control plane increments
// subByA at dispatch, the node's simulation resolves each request into
// doneByA/expByA/shedByA via the SubmitCB callback, and the control
// plane snapshots the *SeenByA arrays once per round — the only
// cross-side handoff, synchronized by the advance barrier exactly like
// the service's own counters.
type trafficReplica struct {
	name string
	idx  int
	ts   *trafficService
	node int
	n    *Node
	ns   *nodeService

	submitted int64
	subByA    [traffic.MaxAttempts]int64
	// Written from the serving node's simulation callbacks:
	doneByA [traffic.MaxAttempts]int64
	expByA  [traffic.MaxAttempts]int64
	shedByA [traffic.MaxAttempts]int64
	// Control-plane snapshots of the above:
	doneSeenByA [traffic.MaxAttempts]int64
	expSeenByA  [traffic.MaxAttempts]int64
	shedSeenByA [traffic.MaxAttempts]int64

	completedSeen int64 // sum of doneSeenByA
	shedSeen      int64
	expiredSeen   int64
	prevQ         int64
	prevBad       int64
	draining      bool
}

func (r *trafficReplica) Submit(op ycsb.Op, offsetNs int64, attempt int) {
	r.submitted++
	r.subByA[attempt]++
	s := r.ns
	rep := r
	r.n.m.Schedule(r.n.m.Now()+offsetNs, func(t int64) {
		s.svc.SubmitCB(op, t, func(oc lcservice.Outcome, _ int64) {
			switch oc {
			case lcservice.OutcomeCompleted:
				rep.doneByA[attempt]++
			case lcservice.OutcomeExpired:
				rep.expByA[attempt]++
			case lcservice.OutcomeShed:
				rep.shedByA[attempt]++
			}
		})
	})
}

// outstanding is the replica's in-flight estimate against the resolved
// counts the control plane has seen.
func (r *trafficReplica) outstanding() int64 {
	return r.submitted - r.completedSeen - r.shedSeen - r.expiredSeen
}

// refreshSeen snapshots the replica's resolved counters, returning the
// round's completion/shed/expired deltas. When fails is non-nil the
// shed+expired deltas are also charged to it per attempt (the
// client-side timeout/failure detection feed).
func (r *trafficReplica) refreshSeen(fails *[traffic.MaxAttempts]int64) (dDone, dShed, dExp int64) {
	for a := 0; a < traffic.MaxAttempts; a++ {
		dd := r.doneByA[a] - r.doneSeenByA[a]
		de := r.expByA[a] - r.expSeenByA[a]
		ds := r.shedByA[a] - r.shedSeenByA[a]
		r.doneSeenByA[a] = r.doneByA[a]
		r.expSeenByA[a] = r.expByA[a]
		r.shedSeenByA[a] = r.shedByA[a]
		dDone += dd
		dExp += de
		dShed += ds
		if fails != nil {
			fails[a] += de + ds
		}
	}
	r.completedSeen += dDone
	r.shedSeen += dShed
	r.expiredSeen += dExp
	return dDone, dShed, dExp
}

// newTrafficController compiles the spec's topology; returns nil (no
// traffic plane) when the spec has none.
func newTrafficController(spec Spec, tracer *runTracer, p *obs.Plane, hbNs int64, warmupRounds int) (*trafficController, error) {
	if spec.Topology == nil {
		return nil, nil
	}
	tc := &trafficController{
		hbNs:     hbNs,
		warmup:   warmupRounds,
		sloNs:    spec.sloNs(),
		tracer:   tracer,
		prevBusy: make([]float64, spec.Nodes),
		nodeRef:  make([]*Node, spec.Nodes),
	}
	if p != nil {
		tc.store = p.Store
	}
	for _, rs := range spec.Topology.Services {
		prog, ok := spec.Topology.Program(rs.Program)
		if !ok {
			return nil, fmt.Errorf("cluster: service %s references unknown program %q", rs.Name, rs.Program)
		}
		seed := rng.DeriveSeed(spec.Seed, "traffic", rs.Name)
		gen, err := traffic.NewOpGen(prog, rs, seed)
		if err != nil {
			return nil, err
		}
		ts := &trafficService{
			spec:     rs,
			prog:     prog,
			proc:     traffic.NewProcess(prog, rng.DeriveSeed(seed, "arrivals")),
			gen:      gen,
			bal:      traffic.NewBalancer(rs.QueueCapacity()),
			sc:       traffic.NewAutoscaler(rs.Autoscaler),
			src:      rng.New(rng.DeriveSeed(seed, "offsets")),
			replicas: map[string]*trafficReplica{},
			attempts: 1,
		}
		if rz := rs.Resilience; rz != nil {
			ts.resilient = true
			tc.resilient = true
			ts.deadlineNs = int64(rz.DeadlineMs * 1e6)
			ts.attempts = rz.Attempts()
			ts.policy = traffic.RetryPolicy{
				Attempts:      rz.Attempts(),
				BackoffRounds: rz.Backoff(),
				JitterRounds:  rz.Jitter(),
			}
			ts.budget = traffic.NewRetryBudget(rz.RetryBudget, rz.BudgetWindow())
			ts.breaker = traffic.NewBreaker(traffic.BreakerConfig{
				FailureRate:  rz.BreakerFailureRate,
				WindowRounds: rz.BreakerWindowRounds,
				MinVolume:    int64(rz.BreakerMinVolume),
				OpenRounds:   rz.BreakerOpenRounds,
				Probes:       rz.BreakerProbes,
			})
			ts.retrySrc = rng.New(rng.DeriveSeed(seed, "retry-jitter"))
		}
		tc.services = append(tc.services, ts)
	}
	return tc, nil
}

// newReplicaPending queues one fresh replica pod for placement.
func (tc *trafficController) newReplicaPending(ts *trafficService) *pendingPod {
	idx := ts.nextIdx
	ts.nextIdx++
	ts.pending++
	rep := &trafficReplica{name: fmt.Sprintf("%s/%d", ts.spec.Name, idx), idx: idx, ts: ts}
	return &pendingPod{
		req: PodRequest{Name: rep.name, Guaranteed: true, Threads: serviceThreads(ts.spec.Store)},
		rep: rep,
	}
}

// initialPods returns the topology's initial replica pods in spec order.
func (tc *trafficController) initialPods() []*pendingPod {
	if tc == nil {
		return nil
	}
	var pods []*pendingPod
	for _, ts := range tc.services {
		for i := 0; i < ts.spec.Replicas; i++ {
			pods = append(pods, tc.newReplicaPending(ts))
		}
	}
	return pods
}

// place books a freshly placed replica: the node launched it, the
// balancer starts routing to it. Resilient services push their admission
// policy (concurrency limit, deadline) onto the replica's service.
func (tc *trafficController) place(p *pendingPod, target int, n *Node) error {
	rep := p.rep
	ts := rep.ts
	if err := n.PlaceReplica(rep.name, ts.spec.Name, ts.spec); err != nil {
		return err
	}
	rep.node = target
	rep.n = n
	rep.ns = n.services[rep.name]
	if rz := ts.spec.Resilience; rz != nil {
		rep.ns.svc.SetAdmission(int64(rz.ConcurrencyLimit), ts.deadlineNs)
	}
	ts.pending--
	ts.replicas[rep.name] = rep
	ts.bal.Add(rep.name, rep)
	return nil
}

// placementFailed drops a replica pod that exhausted its placement
// retries; the autoscaler or the min-replica floor will requeue demand.
func (tc *trafficController) placementFailed(p *pendingPod) {
	p.rep.ts.pending--
	p.rep.ts.failedPlacements++
}

// keepsReplica reports whether the control plane still books a replica
// of that name on node i — the fencing predicate for rejoining nodes.
func (tc *trafficController) keepsReplica(name string, node int) bool {
	if tc == nil {
		return false
	}
	for _, ts := range tc.services {
		if rep := ts.replicas[name]; rep != nil {
			return rep.node == node
		}
	}
	return false
}

// retire unregisters a replica that left the fleet (detail says why),
// folding its resolved counts into the service's retired totals.
func (ts *trafficService) retire(tc *trafficController, rep *trafficReplica, r int, detail string) {
	ts.retiredCompleted += rep.completedSeen
	ts.retiredShed += rep.shedSeen
	ts.retiredExpired += rep.expiredSeen
	ts.bal.Remove(rep.name)
	delete(ts.replicas, rep.name)
	tc.tracer.replicaRetire(rep.name, r, rep.node, detail)
}

// present routes one presentation (a fresh arrival or a released retry)
// through the breaker and the balancer, charging admission drops to the
// attempt's failure account for retry detection.
func (ts *trafficService) present(tc *trafficController, attempt int) {
	if !ts.breaker.Allow() {
		// Client-side fast-fail: counted as an arrival + drop, never
		// retried — the whole point of the breaker is to stop hammering.
		ts.bal.RejectBreaker()
		return
	}
	offset := ts.src.Int63n(tc.hbNs)
	if _, ok := ts.bal.Dispatch(ts.gen.Next(), offset, attempt); !ok && ts.resilient {
		ts.failsByA[attempt]++
	}
}

// inject draws and routes this round's arrivals for every service. It
// runs after the placement pass (replicas placed this round serve
// immediately) and before the nodes advance, so every scheduled request
// lands inside the round's simulated window. Due retry cohorts release
// first (they are older requests), then the round's fresh arrivals.
func (tc *trafficController) inject(r int) {
	if tc == nil {
		return
	}
	t0 := int64(r) * tc.hbNs
	tc.roundSpike = false
	tc.curFirst, tc.curRetries = 0, 0
	for _, ts := range tc.services {
		n := ts.proc.Arrivals(t0, tc.hbNs)
		if ts.proc.InSpike(t0 + tc.hbNs/2) {
			tc.roundSpike = true
		}
		ts.breaker.Tick(r)
		if ts.resilient {
			for _, c := range ts.retryQ.PopDue(r) {
				for k := int64(0); k < c.Count; k++ {
					ts.retries++
					tc.curRetries++
					ts.present(tc, c.Attempt)
				}
			}
		}
		for i := 0; i < n; i++ {
			ts.present(tc, 0)
		}
		tc.curFirst += int64(n)
		ts.lastDemand = ts.bal.TotalOutstanding()
		ts.lastRoutable = ts.bal.Routable()
		if tc.store != nil {
			tc.store.Series("traffic/"+ts.spec.Name+"/arrivals").Append(t0, float64(n))
			tc.store.Series("traffic/"+ts.spec.Name+"/rate_rps").Append(t0, ts.proc.Rate(t0+tc.hbNs/2))
			tc.store.Series("traffic/"+ts.spec.Name+"/queue").Append(t0, float64(ts.lastDemand))
		}
	}
}

// nodeLost removes every replica booked on a node the control plane now
// considers gone: their in-flight requests are accounted as lost, the
// clients that sent them observe timeouts (feeding the retry layer per
// attempt), and enough fresh replicas are queued to restore the
// service's minimum.
func (tc *trafficController) nodeLost(i, r int) []*pendingPod {
	if tc == nil {
		return nil
	}
	var pods []*pendingPod
	for _, ts := range tc.services {
		names := make([]string, 0, len(ts.replicas))
		for name, rep := range ts.replicas {
			if rep.node == i {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			rep := ts.replicas[name]
			if ts.resilient {
				for a := 0; a < traffic.MaxAttempts; a++ {
					lost := rep.subByA[a] - rep.doneSeenByA[a] - rep.expSeenByA[a] - rep.shedSeenByA[a]
					ts.failsByA[a] += lost
				}
			}
			ts.lost += rep.outstanding()
			ts.retire(tc, rep, r, "node-lost")
		}
		want := ts.spec.MinReplicas() - len(ts.replicas) - ts.pending
		for k := 0; k < want; k++ {
			pods = append(pods, tc.newReplicaPending(ts))
		}
	}
	return pods
}

// postRound reconciles the traffic plane after the nodes advanced and
// the registry refreshed: balancer health from the detector's view,
// queue estimates from resolved-request counters, spike/trough SLI
// deltas, draining-replica retirement, the resilience layer's round
// step (breaker transitions, budgeted retry scheduling, the "requests"
// SLO feed), fleet-utilization accounting, series rollups, and the
// autoscaler decisions. Returns freshly queued replica pods (scale-ups)
// plus any burn-rate transitions raised by the requests SLO.
func (tc *trafficController) postRound(r int, nodes []*Node, states []NodeState, down []bool, burn *obs.BurnEngine) ([]*pendingPod, []obs.Alert) {
	if tc == nil {
		return nil, nil
	}
	now := int64(r) * tc.hbNs
	paging := burn.Paging()
	var pods []*pendingPod
	var fleetDone, reqGood, reqBad int64
	for _, ts := range tc.services {
		names := make([]string, 0, len(ts.replicas))
		for name := range ts.replicas {
			names = append(names, name)
		}
		sort.Strings(names)
		var dDone, dShed, dExp int64
		for _, name := range names {
			rep := ts.replicas[name]
			stale := rep.n != nodes[rep.node] // node rebooted under the booking (degradation off)
			if stale || down[rep.node] || states[rep.node].Dead || states[rep.node].Suspect {
				ts.bal.SetHealthy(name, false)
				continue
			}
			ts.bal.SetHealthy(name, true)
			var fails *[traffic.MaxAttempts]int64
			if ts.resilient {
				fails = &ts.failsByA
			}
			dd, ds, de := rep.refreshSeen(fails)
			dDone += dd
			dShed += ds
			dExp += de
			ts.bal.SetOutstanding(name, rep.outstanding())
			lat := rep.ns.svc.Latencies()
			q, bad := lat.Count(), lat.CountAbove(tc.sloNs)
			dq, db := sliDelta(q, bad, rep.prevQ, rep.prevBad)
			rep.prevQ, rep.prevBad = q, bad
			if r >= tc.warmup {
				if tc.roundSpike {
					ts.spikeGood += dq - db
					ts.spikeBad += db
				} else {
					ts.troughGood += dq - db
					ts.troughBad += db
				}
			}
			// A draining replica with nothing in flight retires now.
			if rep.draining && rep.outstanding() == 0 {
				if err := rep.n.RetireReplica(name); err == nil {
					ts.retire(tc, rep, r, "scale-down")
				}
			}
		}
		fleetDone += dDone

		// Resilience round step: per-round failure deltas drive the
		// breaker, the retry budget accrues this round's successes, and
		// the round's failures become backoff-jittered retry cohorts.
		dDrops := ts.bal.Drops() - ts.prevDrops
		ts.prevDrops = ts.bal.Drops()
		dDen := ts.bal.DropsBreaker() - ts.prevDropsBreaker
		ts.prevDropsBreaker = ts.bal.DropsBreaker()
		dLost := ts.lost - ts.prevLost
		ts.prevLost = ts.lost
		if ts.resilient {
			// The breaker must not feed on its own fast-fails: while
			// half-open, quota-denied presentations would otherwise read
			// as failures and re-trip it forever.
			tripped, closed := ts.breaker.Observe(r, dDone, dShed+dExp+dLost+dDrops-dDen)
			if tripped {
				tc.tracer.breakerOpen(ts.spec.Name, r, ts.breaker.TripRate())
			}
			if closed {
				tc.tracer.breakerClose(ts.spec.Name, r)
			}
			ts.budget.Observe(dDone)
			for a := 0; a < ts.attempts; a++ {
				n := ts.failsByA[a]
				ts.failsByA[a] = 0
				if n == 0 {
					continue
				}
				if a+1 >= ts.attempts {
					ts.exhausted += n
					continue
				}
				grant := ts.budget.Spend(n)
				for k := int64(0); k < grant; k++ {
					ts.retryQ.Add(r+ts.policy.Delay(a, ts.retrySrc), a+1, 1)
				}
			}
			reqGood += dDone
			reqBad += dShed + dExp + dLost + dDrops
			if tc.store != nil {
				tc.store.Series("resilience/"+ts.spec.Name+"/retries").Append(now, float64(ts.retryQ.Pending()))
				tc.store.Series("resilience/"+ts.spec.Name+"/failures").Append(now, float64(dShed+dExp+dLost+dDrops))
				tc.store.Series("resilience/"+ts.spec.Name+"/breaker").Append(now, breakerLevel(ts.breaker.State()))
			}
		}

		routable := ts.bal.Routable()
		if routable+ts.pending > ts.peakReplicas {
			ts.peakReplicas = routable + ts.pending
		}
		perReplica := float64(ts.lastDemand)
		if ts.lastRoutable > 0 {
			perReplica /= float64(ts.lastRoutable)
		}
		switch ts.sc.Observe(r, routable+ts.pending, perReplica, paging) {
		case 1:
			p := tc.newReplicaPending(ts)
			pods = append(pods, p)
			tc.tracer.replicaScaleUp(ts.spec.Name, r, perReplica)
		case -1:
			// Drain the youngest routable replica (least cache warmth to
			// lose is not modeled; youngest-first mirrors the reconciler).
			var victim *trafficReplica
			for _, name := range names {
				rep := ts.replicas[name]
				if rep == nil || rep.draining || rep.ns == nil {
					continue
				}
				if victim == nil || rep.idx > victim.idx {
					victim = rep
				}
			}
			if victim != nil {
				victim.draining = true
				ts.bal.SetDraining(victim.name, true)
				tc.tracer.replicaScaleDown(victim.name, r, victim.node, perReplica)
			}
		}
		if tc.store != nil {
			tc.store.Series("autoscaler/"+ts.spec.Name+"/replicas").Append(now, float64(routable+ts.pending))
		}
	}

	tc.roundArrivals = append(tc.roundArrivals, tc.curFirst)
	tc.roundRetries = append(tc.roundRetries, tc.curRetries)
	tc.roundCompletions = append(tc.roundCompletions, fleetDone)

	// The requests SLO pages when the fleet-wide client-visible failure
	// fraction (shed + expired + dropped + lost over arrivals' outcomes)
	// burns its budget across both windows — the wiring that lets
	// breaker/shed state reach the alerting plane and, via Paging, the
	// reconciler and autoscalers next round.
	var alerts []obs.Alert
	if tc.resilient {
		alerts = burn.Observe("requests", r, now, reqGood, reqBad)
	}

	// Whole-node busy-cycle deltas -> fleet utilization for the round,
	// attributed to the spike or trough bucket inside the measured window.
	var deltaSum float64
	for i, n := range nodes {
		if tc.nodeRef[i] != n {
			tc.nodeRef[i] = n
			tc.prevBusy[i] = 0
			tc.freqGHz = n.m.Config().FreqGHz
			tc.cpusPer = n.m.Topology().LogicalCPUs()
		}
		if down[i] {
			continue
		}
		busy := n.totalBusy()
		d := busy - tc.prevBusy[i]
		tc.prevBusy[i] = busy
		if d > 0 {
			deltaSum += d
		}
	}
	util := 0.0
	if tc.freqGHz > 0 {
		util = deltaSum / (tc.freqGHz * float64(tc.hbNs) * float64(tc.cpusPer*len(nodes)))
	}
	if r >= tc.warmup {
		if tc.roundSpike {
			tc.spikeUtilSum += util
			tc.spikeRounds++
		} else {
			tc.troughUtilSum += util
			tc.troughRounds++
		}
	}
	if tc.store != nil {
		tc.store.Series("traffic/fleet_util").Append(now, util)
	}
	return pods, alerts
}

// breakerLevel maps a breaker state onto a plottable series value.
func breakerLevel(s traffic.BreakerState) float64 {
	switch s {
	case traffic.BreakerOpen:
		return 1
	case traffic.BreakerHalfOpen:
		return 0.5
	}
	return 0
}

// TrafficServiceResult is one replicated service's measured outcome.
type TrafficServiceResult struct {
	Name    string
	Store   string
	Program string
	// Replicas is the final routable replica count; PeakReplicas the
	// highest count (placed + pending) any round reached.
	Replicas     int
	PeakReplicas int
	ScaleUps     int
	ScaleDowns   int
	// Request accounting over the whole run (warmup included). The
	// conservation identity Arrivals = Completions + Drops + Shed +
	// Expired + Lost + InFlight holds by construction; Conserved in
	// TrafficResult checks it.
	Arrivals    int64
	Completions int64
	Drops       int64
	Shed        int64
	Expired     int64
	Lost        int64
	InFlight    int64
	// Drop-reason split (sums to Drops): no routable replica at all, all
	// routable replicas at the queue cap, breaker fast-fails.
	DropsUnroutable int64
	DropsCapacity   int64
	DropsBreaker    int64
	// Resilience-layer counters. Retries is deliberately outside the
	// conservation identity: each retry re-enters Arrivals.
	Resilient    bool
	Retries      int64
	BudgetDenied int64
	Exhausted    int64
	BreakerTrips int
	BreakerState string
	// Latency over the measured window, merged across live replicas.
	Queries       int64
	Summary       stats.Summary
	SLOViolations float64
	// Spike/trough SLO-violation split (measured window, rounds
	// classified by the arrival process's spike schedule).
	SpikeQueries     int64
	SpikeSLO         float64
	TroughQueries    int64
	TroughSLO        float64
	FailedPlacements int
}

// TrafficResult aggregates the traffic plane's outcome.
type TrafficResult struct {
	Services                                                    []TrafficServiceResult
	Arrivals, Completions, Drops, Shed, Expired, Lost, InFlight int64
	// Conserved asserts the request-accounting identity fleet-wide.
	Conserved            bool
	Retries              int64
	ScaleUps, ScaleDowns int
	// SpikeUtil/TroughUtil are mean whole-fleet busy fractions over the
	// measured window's spike vs trough rounds.
	SpikeUtil, TroughUtil     float64
	SpikeRounds, TroughRounds int
	// Per-round fleet trajectories (indexed by round, warmup included):
	// first-attempt arrivals, released retries, observed completions.
	// Verdicts that need recovery bounds read these; rendering does not.
	RoundArrivals    []int64
	RoundRetries     []int64
	RoundCompletions []int64
}

// Amplification is the request-amplification factor: total arrivals over
// first-attempt arrivals. 1.0 means no retries.
func (tr *TrafficResult) Amplification() float64 {
	first := tr.Arrivals - tr.Retries
	if first <= 0 {
		return 1
	}
	return float64(tr.Arrivals) / float64(first)
}

// collect finalizes the traffic plane into the run result.
func (tc *trafficController) collect(res *Result, nodes []*Node, down []bool) {
	if tc == nil {
		return
	}
	tr := &TrafficResult{
		RoundArrivals:    tc.roundArrivals,
		RoundRetries:     tc.roundRetries,
		RoundCompletions: tc.roundCompletions,
	}
	for _, ts := range tc.services {
		sr := TrafficServiceResult{
			Name:             ts.spec.Name,
			Store:            ts.spec.Store,
			Program:          ts.spec.Program,
			Replicas:         ts.bal.Routable(),
			PeakReplicas:     ts.peakReplicas,
			ScaleUps:         ts.sc.Ups(),
			ScaleDowns:       ts.sc.Downs(),
			Arrivals:         ts.bal.Arrivals(),
			Drops:            ts.bal.Drops(),
			DropsUnroutable:  ts.bal.DropsUnroutable(),
			DropsCapacity:    ts.bal.DropsCapacity(),
			DropsBreaker:     ts.bal.DropsBreaker(),
			Lost:             ts.lost,
			Completions:      ts.retiredCompleted,
			Shed:             ts.retiredShed,
			Expired:          ts.retiredExpired,
			Resilient:        ts.resilient,
			Retries:          ts.retries,
			BudgetDenied:     ts.budget.Denied(),
			Exhausted:        ts.exhausted,
			BreakerTrips:     ts.breaker.Trips(),
			BreakerState:     ts.breaker.State().String(),
			FailedPlacements: ts.failedPlacements,
		}
		lat := stats.NewHistogram(1e3, 1e10, 60)
		names := make([]string, 0, len(ts.replicas))
		for name := range ts.replicas {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			rep := ts.replicas[name]
			live := rep.n == nodes[rep.node] && !down[rep.node]
			if live {
				rep.refreshSeen(nil)
				_ = lat.Merge(rep.ns.svc.Latencies())
			}
			sr.Completions += rep.completedSeen
			sr.Shed += rep.shedSeen
			sr.Expired += rep.expiredSeen
			sr.InFlight += rep.outstanding()
		}
		sr.Queries = lat.Count()
		sr.Summary = lat.Summarize()
		sr.SLOViolations = lat.FractionAbove(tc.sloNs)
		sr.SpikeQueries = ts.spikeGood + ts.spikeBad
		if sr.SpikeQueries > 0 {
			sr.SpikeSLO = float64(ts.spikeBad) / float64(sr.SpikeQueries)
		}
		sr.TroughQueries = ts.troughGood + ts.troughBad
		if sr.TroughQueries > 0 {
			sr.TroughSLO = float64(ts.troughBad) / float64(sr.TroughQueries)
		}
		tr.Services = append(tr.Services, sr)
		tr.Arrivals += sr.Arrivals
		tr.Completions += sr.Completions
		tr.Drops += sr.Drops
		tr.Shed += sr.Shed
		tr.Expired += sr.Expired
		tr.Lost += sr.Lost
		tr.InFlight += sr.InFlight
		tr.Retries += sr.Retries
		tr.ScaleUps += sr.ScaleUps
		tr.ScaleDowns += sr.ScaleDowns
	}
	tr.Conserved = tr.Arrivals == tr.Completions+tr.Drops+tr.Shed+tr.Expired+tr.Lost+tr.InFlight
	if tc.spikeRounds > 0 {
		tr.SpikeUtil = tc.spikeUtilSum / float64(tc.spikeRounds)
	}
	if tc.troughRounds > 0 {
		tr.TroughUtil = tc.troughUtilSum / float64(tc.troughRounds)
	}
	tr.SpikeRounds = tc.spikeRounds
	tr.TroughRounds = tc.troughRounds
	res.Traffic = tr
}

// renderTraffic appends the traffic plane's section to a rendered run.
func (tr *TrafficResult) render(b *strings.Builder) {
	tb := trace.NewTable("traffic plane: replicated services under open-loop load",
		"service", "program", "replicas", "arrivals", "done", "drop", "lost", "p99 us", "SLO viol", "spike SLO", "trough SLO")
	for _, s := range tr.Services {
		p99 := "n/a"
		slo := "n/a"
		if s.Summary.Valid {
			p99 = fmt.Sprintf("%.1f", s.Summary.P99/1e3)
			slo = fmt.Sprintf("%.2f%%", 100*s.SLOViolations)
		}
		tb.AddRow(s.Name, s.Program,
			fmt.Sprintf("%d (peak %d)", s.Replicas, s.PeakReplicas),
			s.Arrivals, s.Completions, s.Drops, s.Lost, p99, slo,
			fmt.Sprintf("%.2f%%", 100*s.SpikeSLO),
			fmt.Sprintf("%.2f%%", 100*s.TroughSLO))
	}
	b.WriteString("\n")
	b.WriteString(tb.String())
	resilient := false
	for _, s := range tr.Services {
		if s.Resilient {
			resilient = true
		}
	}
	if resilient {
		rb := trace.NewTable("request-path resilience: deadlines, retries, breakers, shedding",
			"service", "retries", "shed", "expired", "drop cap/unrt/brk", "budget denied", "exhausted", "breaker")
		for _, s := range tr.Services {
			if !s.Resilient {
				continue
			}
			rb.AddRow(s.Name, s.Retries, s.Shed, s.Expired,
				fmt.Sprintf("%d/%d/%d", s.DropsCapacity, s.DropsUnroutable, s.DropsBreaker),
				s.BudgetDenied, s.Exhausted,
				fmt.Sprintf("%s (%d trips)", s.BreakerState, s.BreakerTrips))
		}
		b.WriteString("\n")
		b.WriteString(rb.String())
	}
	conserved := "conserved"
	if !tr.Conserved {
		conserved = "NOT CONSERVED"
	}
	fmt.Fprintf(b, "\nrequest accounting: %d arrivals = %d completed + %d dropped + %d shed + %d expired + %d lost + %d in flight (%s)\n",
		tr.Arrivals, tr.Completions, tr.Drops, tr.Shed, tr.Expired, tr.Lost, tr.InFlight, conserved)
	if tr.Retries > 0 || resilient {
		fmt.Fprintf(b, "retry amplification: %.2fx (%d first attempts + %d retries)\n",
			tr.Amplification(), tr.Arrivals-tr.Retries, tr.Retries)
	}
	fmt.Fprintf(b, "autoscaler: %d scale-ups, %d scale-downs; fleet utilization %.1f%% in spikes (%d rounds) vs %.1f%% in troughs (%d rounds)\n",
		tr.ScaleUps, tr.ScaleDowns,
		100*tr.SpikeUtil, tr.SpikeRounds, 100*tr.TroughUtil, tr.TroughRounds)
}
