package cluster

import (
	"fmt"

	"github.com/holmes-colocation/holmes/internal/batch"
	"github.com/holmes-colocation/holmes/internal/cgroupfs"
	"github.com/holmes-colocation/holmes/internal/core"
	"github.com/holmes-colocation/holmes/internal/faults"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/kubelite"
	"github.com/holmes-colocation/holmes/internal/kvstore"
	"github.com/holmes-colocation/holmes/internal/lcservice"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/rng"
	"github.com/holmes-colocation/holmes/internal/scenario"
	"github.com/holmes-colocation/holmes/internal/telemetry"
	"github.com/holmes-colocation/holmes/internal/ycsb"
)

// Heartbeat is one node's periodic telemetry snapshot: what the kubelite
// agent reports to the control plane each round, and everything the
// placement scheduler and reconciler are allowed to know about the node.
type Heartbeat struct {
	Node   int
	TimeNs int64
	// CPUVPI is the instantaneous VPI per logical CPU.
	CPUVPI []float64
	// SmoothedVPI is the mean EWMA VPI across the reserved (LC) CPUs —
	// the sustained interference level the reconciler keys on.
	SmoothedVPI float64
	// LCUtil is the mean smoothed busy fraction of the reserved CPUs.
	LCUtil float64
	// Reserved is the current reserved-pool size (grows under expansion).
	Reserved int
	// Lendable counts reserved CPUs whose hyperthread sibling is
	// currently granted to batch — the node's spare SMT capacity.
	Lendable int
	// BatchPods/BatchThreads are the node's BestEffort occupancy.
	BatchPods    int
	BatchThreads int
	// ServicePods/ServiceThreads are the Guaranteed occupancy.
	ServicePods    int
	ServiceThreads int
	// CapacityThreads is the node's thread capacity (logical CPUs).
	CapacityThreads int
	// Queries and SLOBad are cumulative service-query SLI counters: total
	// completed queries and how many exceeded the latency SLO, summed over
	// the node's services. The control plane differences consecutive
	// heartbeats to feed the fleet burn-rate engine.
	Queries int64
	SLOBad  int64
	// P99Ns is the mean p99 latency across the node's services (0 when
	// the node hosts none or nothing was measured yet).
	P99Ns float64
	// SafeMode reports the node daemon's watchdog state: true while the
	// daemon distrusts its counters and holds the static partition.
	SafeMode bool
	// Gen is the node's boot generation (0 = first boot); it bumps on
	// every reboot so the control plane can tell a fresh incarnation
	// from the one it placed pods on.
	Gen int
	// Progress checkpoints every BestEffort pod's completed work units.
	// If the node dies before the next heartbeat, this is all the control
	// plane has to reschedule from.
	Progress []PodProgress
}

// PodProgress is one BestEffort pod's work-unit checkpoint, carried in
// each heartbeat so a dead node's pods can resume elsewhere from the
// last reported state instead of from zero.
type PodProgress struct {
	Name  string
	Units int
}

// UsedThreads is the node's total declared thread occupancy.
func (h Heartbeat) UsedThreads() int { return h.BatchThreads + h.ServiceThreads }

// nodeService is one placed Guaranteed service pod.
type nodeService struct {
	spec   ServiceSpec
	svc    *lcservice.Service
	client *lcservice.Client
	store  kvstore.Store
}

// Node is one cluster member: a full machine + kernel + cgroupfs + Holmes
// daemon + kubelite agent. Between control-plane rounds a node simulates
// independently, which is what lets the cluster advance all nodes on the
// runner pool without any cross-node ordering.
type Node struct {
	ID int

	m  *machine.Machine
	k  *kernel.Kernel
	fs *cgroupfs.FS
	kl *kubelite.Kubelet

	seed     uint64
	gen      int
	sloNs    float64
	services map[string]*nodeService

	// Measurement baseline, captured when the measured window opens.
	busyBase float64
}

// bootNode builds one node. Its machine seed derives from (cluster seed,
// node ID) via rng.DeriveSeed, so the fleet is reproducible at any boot
// or advance parallelism. gen > 0 is a reboot: the seed is additionally
// salted with the generation, so a rebooted node is a genuinely fresh
// machine, not a replay of its first life — while gen 0 keeps the exact
// seed key of fault-free runs.
func bootNode(spec Spec, id, gen int, tel *telemetry.Set, spans *telemetry.SpanRecorder) (*Node, error) {
	mcfg := machine.DefaultConfig()
	mcfg.Topology.Cores = spec.CoresPerNode
	mcfg.Topology.Sockets = 1
	seedKey := []string{"cluster-node", fmt.Sprint(id)}
	if gen > 0 {
		seedKey = append(seedKey, "reboot", fmt.Sprint(gen))
	}
	mcfg.Seed = rng.DeriveSeed(spec.Seed, seedKey...)
	m := machine.New(mcfg)
	k := kernel.New(m)
	fs := cgroupfs.NewFS()
	if tel != nil {
		k.SetTelemetry(tel)
		fs.SetTelemetry(tel)
	}

	kcfg := kubelite.DefaultConfig()
	kcfg.Holmes = core.DefaultConfig()
	kcfg.Holmes.ReservedCPUs = spec.reservedCPUs()
	kcfg.Holmes.SNs = 500_000_000 // compressed quiet period, as in the evaluation
	kcfg.Holmes.DaemonCPU = mcfg.Topology.LogicalCPUs() - 1
	kcfg.Holmes.Telemetry = tel
	// Span recording is pure observation: the daemon's modeled span cost
	// depends only on Telemetry being set, so attaching a recorder here
	// cannot perturb the simulation (the tracing on/off byte-identity the
	// cluster tests pin).
	kcfg.Holmes.Spans = spans
	kcfg.Holmes.SpanNode = id
	if !spec.DisableDegradation {
		// Counter-health watchdog + periodic cgroupfs re-scan: the node
		// defends itself against lying counters and lost events.
		kcfg.Holmes.WatchdogWindow = 128
		kcfg.Holmes.RescanIntervalNs = spec.heartbeatNs()
	}
	if c := spec.Chaos; c != nil {
		if cs := c.Counters; cs.Enabled() {
			kcfg.Holmes.CounterFault = faults.NewCounterInjector(
				cs.Resolve(spec.totalSimNs()),
				rng.DeriveSeed(spec.Seed, "chaos-counters", fmt.Sprint(id), fmt.Sprint(gen)))
		}
		if cg := c.Cgroup; cg.Enabled() {
			kcfg.Holmes.CgroupFault = faults.NewCgroupInjector(cg,
				rng.DeriveSeed(spec.Seed, "chaos-cgroup", fmt.Sprint(id), fmt.Sprint(gen)))
		}
	}
	kl, err := kubelite.Start(k, fs, kcfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w", id, err)
	}
	return &Node{
		ID:       id,
		m:        m,
		k:        k,
		fs:       fs,
		kl:       kl,
		seed:     spec.Seed,
		gen:      gen,
		sloNs:    spec.sloNs(),
		services: map[string]*nodeService{},
	}, nil
}

// Advance runs the node's simulation for one heartbeat period. Nothing
// outside the node is touched, so Advance calls on different nodes are
// safe to run concurrently.
func (n *Node) Advance(durNs int64) { n.m.RunFor(durNs) }

// Occupied reports whether the node currently hosts any pod — service,
// replica or batch. The level-of-detail policy never fast-forwards an
// occupied node: hosted work must simulate at full fidelity.
func (n *Node) Occupied() bool { return len(n.services) > 0 || n.kl.Pods() > 0 }

// Heartbeat snapshots the node's telemetry for the control plane.
func (n *Node) Heartbeat() Heartbeat {
	d := n.kl.Holmes()
	mon := d.Monitor()
	topo := n.m.Topology()
	hb := Heartbeat{
		Node:            n.ID,
		TimeNs:          n.m.Now(),
		CPUVPI:          make([]float64, topo.LogicalCPUs()),
		CapacityThreads: topo.LogicalCPUs(),
		ServicePods:     len(n.services),
		SafeMode:        d.SafeMode(),
		Gen:             n.gen,
	}
	for p := 0; p < topo.LogicalCPUs(); p++ {
		hb.CPUVPI[p] = mon.VPI(p)
	}
	reserved := d.ReservedCPUs().CPUs()
	hb.Reserved = len(reserved)
	for _, p := range reserved {
		hb.SmoothedVPI += mon.SmoothedVPI(p)
		hb.LCUtil += mon.SmoothedUsage(p)
		if d.SiblingAllowed(p) {
			hb.Lendable++
		}
	}
	if len(reserved) > 0 {
		hb.SmoothedVPI /= float64(len(reserved))
		hb.LCUtil /= float64(len(reserved))
	}
	for _, s := range n.services {
		hb.ServiceThreads += len(s.svc.Process().Threads())
		lat := s.svc.Latencies()
		hb.Queries += lat.Count()
		hb.SLOBad += lat.CountAbove(n.sloNs)
		hb.P99Ns += lat.Percentile(99)
	}
	if len(n.services) > 0 {
		hb.P99Ns /= float64(len(n.services))
	}
	for _, name := range n.kl.PodNames() {
		pod := n.kl.Pod(name)
		if pod.Spec.QoS != kubelite.BestEffort {
			continue
		}
		hb.BatchPods++
		hb.BatchThreads += pod.Spec.Containers * pod.Spec.ThreadsPerContainer
		hb.Progress = append(hb.Progress, PodProgress{Name: name, Units: pod.CompletedWorkUnits()})
	}
	return hb
}

// PlaceService launches a Guaranteed service pod on this node: the store
// is built and preloaded, the service process spawned and registered with
// the node's Holmes daemon through the kubelite agent, and its open-loop
// client started. Seeds derive from (cluster seed, service name) only, so
// a service behaves identically wherever it lands.
func (n *Node) PlaceService(ss ServiceSpec) error {
	if _, dup := n.services[ss.Name]; dup {
		return fmt.Errorf("cluster: node %d already runs service %s", n.ID, ss.Name)
	}
	wl, err := ycsb.ByName(orDefault(ss.Workload, "a"))
	if err != nil {
		return err
	}
	records := ss.RecordCount
	if records == 0 {
		records = 20_000
	}
	store, gen, err := lcservice.Preload{
		Store:     ss.Store,
		StoreSeed: rng.DeriveSeed(n.seed, "svc-store", ss.Name),
		Workload:  wl,
		Records:   records,
		GenSeed:   rng.DeriveSeed(n.seed, "svc-gen", ss.Name),
	}.Load()
	if err != nil {
		return err
	}
	svc := lcservice.Launch(n.k, store, lcservice.DefaultConfigFor(ss.Store))
	if _, err := n.kl.RunServicePod(ss.Name, svc.Process()); err != nil {
		return err
	}
	// 10x-compressed bursty traffic, as in the single-node evaluation.
	tr := ycsb.NewTraffic(6e8, 9e8, 5e7, 1e8, ss.RPS,
		rng.DeriveSeed(n.seed, "svc-traffic", ss.Name))
	client := lcservice.NewClient(svc, gen, tr)
	client.Start()
	n.services[ss.Name] = &nodeService{spec: ss, svc: svc, client: client, store: store}
	return nil
}

// replicaPreload names the preloaded store every replica of a replicated
// (traffic-driven) service starts from. Its seeds derive from the cluster
// seed and the service name, not the replica name, so every replica
// holds an identical working set wherever and whenever it boots.
func replicaPreload(seed uint64, rs scenario.ReplicatedService) (lcservice.Preload, error) {
	wl, err := ycsb.ByName(rs.WorkloadName())
	if err != nil {
		return lcservice.Preload{}, err
	}
	return lcservice.Preload{
		Store:     rs.Store,
		StoreSeed: rng.DeriveSeed(seed, "replica-store", rs.Name),
		Workload:  wl,
		Records:   rs.Records(),
		GenSeed:   rng.DeriveSeed(seed, "replica-gen", rs.Name),
	}, nil
}

// PlaceReplica launches one replica of a replicated (traffic-driven)
// service around store, which the caller preloaded from the service's
// replicaPreload (a fresh load or a clone of one). It takes the same
// lcservice + Guaranteed pod path as PlaceService, but with no
// closed-loop client: the load-balancer tier submits its requests.
func (n *Node) PlaceReplica(name string, rs scenario.ReplicatedService, store kvstore.Store) error {
	if _, dup := n.services[name]; dup {
		return fmt.Errorf("cluster: node %d already runs replica %s", n.ID, name)
	}
	svc := lcservice.Launch(n.k, store, lcservice.DefaultConfigFor(rs.Store))
	if _, err := n.kl.RunServicePod(name, svc.Process()); err != nil {
		return err
	}
	n.services[name] = &nodeService{
		spec:  ServiceSpec{Name: name, Store: rs.Store, Workload: rs.WorkloadName()},
		svc:   svc,
		store: store,
	}
	return nil
}

// RetireReplica removes a drained replica: the pod is deleted and the
// service instance forgotten (the autoscaler's scale-down completion).
func (n *Node) RetireReplica(name string) error {
	s := n.services[name]
	if s == nil {
		return fmt.Errorf("cluster: node %d has no replica %s", n.ID, name)
	}
	delete(n.services, name)
	return n.kl.DeletePod(name)
}

// PlaceBatch admits a BestEffort pod through the kubelite agent; the
// node's Holmes daemon discovers it via the cgroup watch and manages its
// sibling access from then on.
func (n *Node) PlaceBatch(name string, kind batch.Kind, containers, threads, units int) error {
	_, err := n.kl.RunPod(kubelite.PodSpec{
		Name:                name,
		QoS:                 kubelite.BestEffort,
		Containers:          containers,
		ThreadsPerContainer: threads,
		Kind:                kind,
		WorkUnitsPerThread:  units,
		MemoryBytes:         1 << 30,
	})
	return err
}

// EvictBatch deletes a BestEffort pod (the reconciler's action); the pod
// resumes from its checkpoint wherever the scheduler re-places it.
func (n *Node) EvictBatch(name string) error { return n.kl.DeletePod(name) }

// HasBatch reports whether a BestEffort pod by that name still runs on
// this node — the control plane's bookings can go stale across a reboot.
func (n *Node) HasBatch(name string) bool {
	pod := n.kl.Pod(name)
	return pod != nil && pod.Spec.QoS == kubelite.BestEffort
}

// Fence reconciles a rejoining node against the control plane's current
// view: every BestEffort pod not in keepPods and every service the
// control plane no longer books here (keepService false) is deleted.
// A node that was falsely declared dead may have been doing work the
// scheduler already re-placed elsewhere; fencing kills the zombies so
// two instances never run at once. Returns the number of pods removed.
func (n *Node) Fence(keepPods map[string]bool, keepService func(string) bool) (int, error) {
	fenced := 0
	for _, name := range n.kl.PodNames() {
		pod := n.kl.Pod(name)
		switch pod.Spec.QoS {
		case kubelite.BestEffort:
			if keepPods[name] {
				continue
			}
		default:
			s := n.services[name]
			if s == nil || keepService(name) {
				continue
			}
			if s.client != nil {
				s.client.Stop()
			}
			delete(n.services, name)
		}
		if err := n.kl.DeletePod(name); err != nil {
			return fenced, err
		}
		fenced++
	}
	return fenced, nil
}

// DaemonStats exposes the node daemon's counters (safe-mode entries,
// re-scan repairs, ...) so the cluster result can aggregate degradation
// activity across the fleet.
func (n *Node) DaemonStats() core.DaemonStats { return n.kl.Holmes().Snapshot() }

// BatchUnitsDone returns a BestEffort pod's completed work units — the
// checkpoint the reconciler requeues an evicted pod from.
func (n *Node) BatchUnitsDone(name string) int {
	if pod := n.kl.Pod(name); pod != nil {
		return pod.CompletedWorkUnits()
	}
	return 0
}

// ReapFinished deletes every finite BestEffort pod that has drained its
// work, returning the reclaimed pod names in deterministic order.
func (n *Node) ReapFinished() ([]string, error) {
	var done []string
	for _, name := range n.kl.PodNames() {
		pod := n.kl.Pod(name)
		if pod.Spec.QoS != kubelite.BestEffort || !pod.Finished() {
			continue
		}
		if err := n.kl.DeletePod(name); err != nil {
			return done, err
		}
		done = append(done, name)
	}
	return done, nil
}

// BeginMeasurement opens the measured window: latency histograms reset
// and the utilization baseline is captured.
func (n *Node) BeginMeasurement() {
	for _, s := range n.services {
		s.svc.ResetLatencies()
	}
	n.busyBase = n.totalBusy()
}

func (n *Node) totalBusy() float64 {
	var busy float64
	for p := 0; p < n.m.Topology().LogicalCPUs(); p++ {
		busy += n.m.BusyCycles(p)
	}
	return busy
}

// Utilization returns the node-wide busy fraction since BeginMeasurement.
func (n *Node) Utilization(windowNs int64) float64 {
	nCPU := float64(n.m.Topology().LogicalCPUs())
	return (n.totalBusy() - n.busyBase) /
		(n.m.Config().FreqGHz * float64(windowNs) * nCPU)
}

// Stop halts the node's daemon and clients.
func (n *Node) Stop() {
	for _, s := range n.services {
		if s.client != nil {
			s.client.Stop()
		}
	}
	n.kl.Stop()
}
