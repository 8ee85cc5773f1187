// Package yarn reproduces the slice of Apache Yarn the deployment uses: a
// node manager that launches batch-job containers as processes inside
// cgroup directories. Following the paper's (sub-10-line) modification to
// the NodeManager, containers are launched with a *specified CPU set* so
// batch jobs never start on the CPUs reserved for latency-critical
// services; Holmes then discovers and manages them by watching the cgroup
// tree.
package yarn

import (
	"fmt"
	"sort"

	"github.com/holmes-colocation/holmes/internal/batch"
	"github.com/holmes-colocation/holmes/internal/cgroupfs"
	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/workload"
)

// Job is a running or completed batch job.
type Job struct {
	ID   int
	Spec batch.Spec

	containers []*Container
	remaining  int // running containers
	SubmitNs   int64
	StartNs    int64
	DoneNs     int64
}

// Done reports whether the job has completed.
func (j *Job) Done() bool { return j.remaining == 0 }

// Containers returns the job's containers.
func (j *Job) Containers() []*Container { return j.containers }

// Container is one Yarn container: a process in its own cgroup.
type Container struct {
	Job     *Job
	Index   int
	Proc    *kernel.Process
	Cgroup  *cgroupfs.Group
	pending int // threads still working
}

// Path returns the container's cgroup path.
func (c *Container) Path() string { return c.Cgroup.Path() }

// NodeManager launches and supervises containers on one machine.
type NodeManager struct {
	k  *kernel.Kernel
	fs *cgroupfs.FS

	// LaunchMask is the CPU set containers start with (the paper's
	// NodeManager modification). The Holmes scheduler may change
	// per-container affinity afterwards.
	LaunchMask cpuid.Mask
	// MaxConcurrentJobs bounds simultaneously running jobs.
	MaxConcurrentJobs int

	root      *cgroupfs.Group
	nextJobID int
	running   map[int]*Job
	queue     []batch.Spec
	completed []*Job
	// OnJobDone, if set, observes completions.
	OnJobDone func(*Job)
	// Refill, if set, is called when a job finishes and the queue is
	// empty, to keep continuous batch pressure (§6.1 submits workloads
	// continuously).
	Refill func() *batch.Spec
}

// NewNodeManager creates a node manager rooted at /yarn in fs.
func NewNodeManager(k *kernel.Kernel, fs *cgroupfs.FS, launchMask cpuid.Mask) *NodeManager {
	root, _ := fs.Mkdir("/yarn")
	return &NodeManager{
		k:                 k,
		fs:                fs,
		LaunchMask:        launchMask,
		MaxConcurrentJobs: 4,
		root:              root,
		running:           map[int]*Job{},
	}
}

// Root returns the /yarn cgroup.
func (nm *NodeManager) Root() *cgroupfs.Group { return nm.root }

// Running returns the number of running jobs.
func (nm *NodeManager) Running() int { return len(nm.running) }

// RunningJobs returns the currently running jobs sorted by ID.
func (nm *NodeManager) RunningJobs() []*Job {
	out := make([]*Job, 0, len(nm.running))
	for _, j := range nm.running {
		out = append(out, j)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// QueueLen returns the number of queued (not yet launched) jobs.
func (nm *NodeManager) QueueLen() int { return len(nm.queue) }

// Completed returns the completed jobs.
func (nm *NodeManager) Completed() []*Job { return nm.completed }

// CompletedCount returns the number of completed jobs.
func (nm *NodeManager) CompletedCount() int { return len(nm.completed) }

// Submit queues a job and launches it if a slot is free.
func (nm *NodeManager) Submit(spec batch.Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	nm.queue = append(nm.queue, spec)
	nm.pump()
	return nil
}

// pump launches queued jobs while slots are available.
func (nm *NodeManager) pump() {
	for len(nm.queue) > 0 && len(nm.running) < nm.MaxConcurrentJobs {
		spec := nm.queue[0]
		nm.queue = nm.queue[1:]
		nm.launch(spec)
	}
}

// launch starts all containers of a job.
func (nm *NodeManager) launch(spec batch.Spec) *Job {
	nm.nextJobID++
	job := &Job{
		ID:        nm.nextJobID,
		Spec:      spec,
		remaining: spec.Containers,
		SubmitNs:  nm.k.Machine().Now(),
		StartNs:   nm.k.Machine().Now(),
	}
	nm.running[job.ID] = job
	for ci := 0; ci < spec.Containers; ci++ {
		job.containers = append(job.containers, nm.launchContainer(job, ci))
	}
	return job
}

func (nm *NodeManager) launchContainer(job *Job, index int) *Container {
	path := fmt.Sprintf("/yarn/job_%04d/container_%02d", job.ID, index)
	cg, _ := nm.fs.Mkdir(path)
	cg.SetMemoryLimit(job.Spec.MemoryBytes)
	cg.SetCpuset(nm.LaunchMask)

	proc := nm.k.Spawn(fmt.Sprintf("%s-j%d-c%d", job.Spec.Kind, job.ID, index), job.Spec.ThreadsPerContainer)
	_ = proc.SetAffinity(nm.LaunchMask)
	cg.AddPid(proc.PID)

	c := &Container{Job: job, Index: index, Proc: proc, Cgroup: cg,
		pending: job.Spec.ThreadsPerContainer}

	// Start each executor thread on a self-sustaining chain of work
	// units: completing one unit pushes the next, so progress follows
	// exactly the CPU time the scheduler grants.
	unit := job.Spec.Kind.UnitCost()
	for _, th := range proc.Threads() {
		nm.startChain(c, th, unit, job.Spec.WorkUnitsPerThread)
	}
	return c
}

// startChain pushes a chain of remaining work units onto a thread. The
// item and its completion closure are built once per thread: each
// completion pushes the same item again, and the last one reports the
// thread done.
func (nm *NodeManager) startChain(c *Container, th *kernel.Thread, unit workload.Cost, remaining int) {
	if remaining <= 0 {
		nm.threadDone(c)
		return
	}
	var item workload.Item
	item = workload.Item{Cost: unit, OnComplete: func(int64) {
		remaining--
		if remaining == 0 {
			nm.threadDone(c)
			return
		}
		th.HW.Push(item)
	}}
	th.HW.Push(item)
}

// threadDone tracks container and job completion.
func (nm *NodeManager) threadDone(c *Container) {
	c.pending--
	if c.pending > 0 {
		return
	}
	// Container finished: tear down its process and cgroup.
	pid := c.Proc.PID
	c.Proc.Exit()
	c.Cgroup.RemovePid(pid)
	_ = nm.fs.Rmdir(c.Cgroup.Path())

	c.Job.remaining--
	if c.Job.remaining > 0 {
		return
	}
	// Job finished.
	c.Job.DoneNs = nm.k.Machine().Now()
	delete(nm.running, c.Job.ID)
	_ = nm.fs.Rmdir(fmt.Sprintf("/yarn/job_%04d", c.Job.ID))
	nm.completed = append(nm.completed, c.Job)
	if nm.OnJobDone != nil {
		nm.OnJobDone(c.Job)
	}
	if len(nm.queue) == 0 && nm.Refill != nil {
		if spec := nm.Refill(); spec != nil {
			nm.queue = append(nm.queue, *spec)
		}
	}
	nm.pump()
}
