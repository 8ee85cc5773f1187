// Package kubelite implements the paper's stated future work (§8):
// integrating Holmes with a Kubernetes-style cluster manager. It is a
// node-level kubelet for the simulated machine: pods declare a QoS class,
// the kubelet materializes them as processes inside the Kubernetes cgroup
// layout (/kubepods/<qos>/<pod>/<container>), and the integration policy
// falls out of the classes —
//
//   - Guaranteed pods are latency-critical: the kubelet registers their
//     processes with the Holmes daemon, which pins them to the reserved
//     CPUs (Algorithm 1);
//   - BestEffort pods are batch: Holmes discovers them by watching the
//     best-effort cgroup subtree, exactly as it watches Yarn containers;
//   - Burstable pods run on the non-reserved CPUs without Holmes
//     management (they are neither protected nor throttled).
package kubelite

import (
	"fmt"
	"sort"

	"github.com/holmes-colocation/holmes/internal/batch"
	"github.com/holmes-colocation/holmes/internal/cgroupfs"
	"github.com/holmes-colocation/holmes/internal/core"
	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/workload"
)

// QoSClass is the Kubernetes pod quality-of-service class.
type QoSClass string

// The three Kubernetes QoS classes.
const (
	Guaranteed QoSClass = "guaranteed"
	Burstable  QoSClass = "burstable"
	BestEffort QoSClass = "besteffort"
)

// CgroupRoot is the kubelet's cgroup subtree.
const CgroupRoot = "/kubepods"

// BestEffortRoot is the subtree Holmes watches for batch pods.
const BestEffortRoot = CgroupRoot + "/besteffort"

// PodSpec declares a pod.
type PodSpec struct {
	Name string
	QoS  QoSClass
	// Containers and ThreadsPerContainer shape batch pods (BestEffort
	// and Burstable). Guaranteed pods attach an existing service process
	// instead (see RunServicePod).
	Containers          int
	ThreadsPerContainer int
	// Kind is the batch workload profile for BestEffort/Burstable pods.
	Kind batch.Kind
	// WorkUnitsPerThread sizes batch pods; 0 means run until deleted.
	WorkUnitsPerThread int
	// MemoryBytes is the per-container memory limit.
	MemoryBytes int64
}

// Pod is a running pod.
type Pod struct {
	Spec      PodSpec
	Cgroup    *cgroupfs.Group
	Procs     []*kernel.Process
	deleted   bool
	unitsDone int
}

// CompletedWorkUnits counts the batch work units the pod's threads have
// finished so far — the checkpoint a rescheduler can resume from.
func (p *Pod) CompletedWorkUnits() int { return p.unitsDone }

// Kubelet manages pods on one simulated node.
type Kubelet struct {
	k      *kernel.Kernel
	fs     *cgroupfs.FS
	holmes *core.Daemon
	pods   map[string]*Pod
}

// Config parameterizes the node.
type Config struct {
	// Holmes overrides the daemon settings; the kubelet always points
	// the discovery root at the best-effort subtree.
	Holmes core.Config
}

// DefaultConfig uses the paper's daemon settings.
func DefaultConfig() Config {
	return Config{Holmes: core.DefaultConfig()}
}

// Start creates the cgroup layout and launches Holmes watching the
// best-effort subtree.
func Start(k *kernel.Kernel, fs *cgroupfs.FS, cfg Config) (*Kubelet, error) {
	for _, qos := range []QoSClass{Guaranteed, Burstable, BestEffort} {
		if _, err := fs.Mkdir(CgroupRoot + "/" + string(qos)); err != nil {
			return nil, err
		}
	}
	hc := cfg.Holmes
	hc.YarnRoot = BestEffortRoot
	d, err := core.Start(k, fs, hc)
	if err != nil {
		return nil, err
	}
	return &Kubelet{k: k, fs: fs, holmes: d, pods: map[string]*Pod{}}, nil
}

// Holmes exposes the daemon (read-only use in tests and tooling).
func (kl *Kubelet) Holmes() *core.Daemon { return kl.holmes }

// Pods returns the number of running pods.
func (kl *Kubelet) Pods() int { return len(kl.pods) }

// Pod returns a running pod by name, or nil.
func (kl *Kubelet) Pod(name string) *Pod { return kl.pods[name] }

// PodNames returns the running pods' names in sorted order, so callers
// that act on every pod (reapers, reconcilers) iterate deterministically.
func (kl *Kubelet) PodNames() []string {
	names := make([]string, 0, len(kl.pods))
	for name := range kl.pods {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Stop halts the node's daemon (pods keep running unmanaged).
func (kl *Kubelet) Stop() { kl.holmes.Stop() }

// podPath returns the pod's cgroup directory.
func podPath(spec PodSpec) string {
	return fmt.Sprintf("%s/%s/pod-%s", CgroupRoot, spec.QoS, spec.Name)
}

// RunServicePod admits a Guaranteed pod wrapping an existing service
// process: its cgroup is created and the process is registered with
// Holmes as latency-critical (the §8 integration: the cluster manager,
// not the administrator, supplies the PID).
func (kl *Kubelet) RunServicePod(name string, proc *kernel.Process) (*Pod, error) {
	if proc == nil || proc.Exited() {
		return nil, fmt.Errorf("kubelite: pod %s has no live process", name)
	}
	spec := PodSpec{Name: name, QoS: Guaranteed}
	if _, dup := kl.pods[name]; dup {
		return nil, fmt.Errorf("kubelite: pod %s already exists", name)
	}
	cg, err := kl.fs.Mkdir(podPath(spec))
	if err != nil {
		return nil, err
	}
	cg.AddPid(proc.PID)
	if err := kl.holmes.RegisterLC(proc.PID); err != nil {
		return nil, err
	}
	pod := &Pod{Spec: spec, Cgroup: cg, Procs: []*kernel.Process{proc}}
	kl.pods[name] = pod
	return pod, nil
}

// RunPod admits a Burstable or BestEffort pod, launching its containers.
func (kl *Kubelet) RunPod(spec PodSpec) (*Pod, error) {
	switch spec.QoS {
	case BestEffort, Burstable:
	case Guaranteed:
		return nil, fmt.Errorf("kubelite: use RunServicePod for guaranteed pods")
	default:
		return nil, fmt.Errorf("kubelite: unknown QoS class %q", spec.QoS)
	}
	if spec.Name == "" {
		return nil, fmt.Errorf("kubelite: pod needs a name")
	}
	if _, dup := kl.pods[spec.Name]; dup {
		return nil, fmt.Errorf("kubelite: pod %s already exists", spec.Name)
	}
	if spec.Containers <= 0 {
		spec.Containers = 1
	}
	if spec.ThreadsPerContainer <= 0 {
		spec.ThreadsPerContainer = 1
	}

	pod := &Pod{Spec: spec}
	topo := kl.k.Machine().Topology()
	// Non-guaranteed pods start outside the reserved pool; for
	// best-effort pods Holmes then manages sibling access dynamically.
	mask := cpuid.FullMask(topo.LogicalCPUs()).Subtract(kl.holmes.ReservedCPUs())

	for c := 0; c < spec.Containers; c++ {
		path := fmt.Sprintf("%s/container-%02d", podPath(spec), c)
		cg, err := kl.fs.Mkdir(path)
		if err != nil {
			return nil, err
		}
		cg.SetMemoryLimit(spec.MemoryBytes)
		proc := kl.k.Spawn(fmt.Sprintf("%s/%d", spec.Name, c), spec.ThreadsPerContainer)
		if err := proc.SetAffinity(mask); err != nil {
			return nil, err
		}
		cg.AddPid(proc.PID) // triggers Holmes discovery for besteffort
		unit := spec.Kind.UnitCost()
		for _, th := range proc.Threads() {
			kl.startChain(pod, th, unit, spec.WorkUnitsPerThread)
		}
		pod.Procs = append(pod.Procs, proc)
		if pod.Cgroup == nil {
			pod.Cgroup = kl.fs.Lookup(podPath(spec))
		}
	}
	kl.pods[spec.Name] = pod
	return pod, nil
}

// Finished reports whether a finite pod has drained all its work: every
// container thread is idle with no queued items. Pods sized with
// WorkUnitsPerThread == 0 run until deleted and are never finished.
func (p *Pod) Finished() bool {
	if p.deleted || p.Spec.WorkUnitsPerThread <= 0 {
		return false
	}
	for _, proc := range p.Procs {
		for _, th := range proc.Threads() {
			if th.HW.State() != machine.Idle {
				return false
			}
		}
	}
	return true
}

// startChain feeds a container thread; 0 remaining means endless. The
// item and its completion closure are built once per thread: each
// completion pushes the same item again until the count runs out.
func (kl *Kubelet) startChain(pod *Pod, th *kernel.Thread, unit workload.Cost, remaining int) {
	endless := remaining <= 0
	var item workload.Item
	item = workload.Item{Cost: unit, OnComplete: func(int64) {
		pod.unitsDone++
		if !endless {
			remaining--
			if remaining == 0 {
				return
			}
		}
		th.HW.Push(item)
	}}
	th.HW.Push(item)
}

// DeletePod tears a pod down: processes exit, cgroups are removed, and —
// for best-effort pods — Holmes observes the removal (Algorithm 3's batch
// exit path).
func (kl *Kubelet) DeletePod(name string) error {
	pod, ok := kl.pods[name]
	if !ok {
		return fmt.Errorf("kubelite: no such pod %s", name)
	}
	pod.deleted = true
	for _, proc := range pod.Procs {
		pid := proc.PID
		proc.Exit()
		pod.Cgroup.Walk(func(g *cgroupfs.Group) { g.RemovePid(pid) })
	}
	// Remove container cgroups, then the pod directory.
	for _, child := range pod.Cgroup.Children() {
		if err := kl.fs.Rmdir(child.Path()); err != nil {
			return err
		}
	}
	if err := kl.fs.Rmdir(pod.Cgroup.Path()); err != nil {
		return err
	}
	delete(kl.pods, name)
	return nil
}
