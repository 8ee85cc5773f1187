// Package lcservice runs a key-value store as a latency-critical service
// on the simulated machine: a kernel process with worker threads serving
// queries and (for the disk-based stores) background maintenance threads,
// plus an open-loop YCSB client that injects requests as simulation events
// and records per-query latency.
//
// This is the glue between the functional stores and the machine: an
// operation executes against the real data structure immediately, but the
// *cost* it reports becomes work items on a serving hardware thread, so
// the recorded latency includes queueing, CPU contention, and SMT
// interference.
package lcservice

import (
	"fmt"

	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/kvstore"
	"github.com/holmes-colocation/holmes/internal/kvstore/memcached"
	"github.com/holmes-colocation/holmes/internal/kvstore/redis"
	"github.com/holmes-colocation/holmes/internal/kvstore/rocksdb"
	"github.com/holmes-colocation/holmes/internal/kvstore/wiredtiger"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/stats"
	"github.com/holmes-colocation/holmes/internal/workload"
	"github.com/holmes-colocation/holmes/internal/ycsb"
)

// Config parameterizes a service instance.
type Config struct {
	// Workers is the number of query-serving threads. Redis uses 1
	// (single-threaded event loop); the others use 4 in the evaluation.
	Workers int
	// BackgroundWorkers run flush/compaction/checkpoint work for stores
	// implementing kvstore.Backgrounder.
	BackgroundWorkers int
	// PerRequestOverhead is charged on every query in addition to the
	// store's own cost: the network receive, system-call, protocol-parse
	// and reply-send path that dominates small-op latency on a real
	// server (tens of microseconds per query in the paper's CDFs).
	PerRequestOverhead workload.Cost
}

// DefaultOverhead returns the per-request network/syscall cost: ~40 µs of
// execution (interrupt, TCP receive, epoll wakeup, protocol parse, reply
// send) plus socket-buffer and connection-state traffic. The 18 DRAM
// lines make even cache-resident queries carry interference-sensitive
// work, and they put the serving CPU's quiet VPI near ~36 — below the
// paper's threshold E=40 — while sibling interference pushes it above.
func DefaultOverhead() workload.Cost {
	c := workload.Compute(80_000)
	c.Add(workload.MemRead(workload.L2, 40))
	c.Add(workload.MemWrite(workload.L2, 40))
	c.Add(workload.MemRead(workload.DRAM, 18))
	return c
}

// DefaultConfigFor returns the per-store evaluation configuration.
func DefaultConfigFor(storeName string) Config {
	switch storeName {
	case "redis":
		// One event-loop worker plus the forked BGSAVE child.
		return Config{Workers: 1, BackgroundWorkers: 1, PerRequestOverhead: DefaultOverhead()}
	case "memcached":
		return Config{Workers: 4, PerRequestOverhead: DefaultOverhead()}
	default: // rocksdb, wiredtiger
		return Config{Workers: 4, BackgroundWorkers: 2, PerRequestOverhead: DefaultOverhead()}
	}
}

// NewStore constructs the named store under its default configuration;
// seed drives the stores with randomized internals (all but memcached).
func NewStore(name string, seed uint64) (kvstore.Store, error) {
	switch name {
	case "redis":
		cfg := redis.DefaultConfig()
		cfg.Seed = seed
		return redis.New(cfg), nil
	case "memcached":
		return memcached.New(memcached.DefaultConfig()), nil
	case "rocksdb":
		cfg := rocksdb.DefaultConfig()
		cfg.Seed = seed
		return rocksdb.New(cfg), nil
	case "wiredtiger":
		cfg := wiredtiger.DefaultConfig()
		cfg.Seed = seed
		return wiredtiger.New(cfg), nil
	}
	return nil, fmt.Errorf("lcservice: unknown store %q", name)
}

// Service is a running latency-critical service.
type Service struct {
	store kvstore.Store
	k     *kernel.Kernel
	m     *machine.Machine
	proc  *kernel.Process

	workers  []*kernel.Thread
	bg       []*kernel.Thread
	nextW    int
	nextBG   int
	overhead workload.Cost

	lat         *stats.Histogram
	completed   int64
	submitted   int64
	unsupported int64

	// Replica-side admission control (SetAdmission): a concurrency limit
	// sheds requests at submission when the unresolved count is at the
	// cap, and a per-request deadline classifies replies that drain after
	// it as expired — the client already timed out, so the work was
	// wasted. Both default to off (0), leaving closed-loop services
	// untouched.
	concLimit  int64
	deadlineNs int64
	shed       int64
	expired    int64
}

// Outcome classifies how one submitted request resolved.
type Outcome uint8

const (
	// OutcomeCompleted: the reply drained within the deadline (or no
	// deadline was configured).
	OutcomeCompleted Outcome = iota
	// OutcomeExpired: the reply drained after the per-request deadline —
	// the queueing delay ate the budget, the client saw a timeout, and
	// the server's work was wasted.
	OutcomeExpired
	// OutcomeShed: admission control refused the request at submission
	// (unresolved count at the concurrency limit); no work was done.
	OutcomeShed
)

// Launch creates the service process with its threads. The caller pins
// threads afterwards (or lets the scheduler under test place them).
func Launch(k *kernel.Kernel, store kvstore.Store, cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	s := &Service{
		store:    store,
		k:        k,
		m:        k.Machine(),
		overhead: cfg.PerRequestOverhead,
		// Latencies recorded in nanoseconds: 1 µs .. 10 s.
		lat: stats.NewHistogram(1e3, 1e10, 60),
	}
	s.proc = k.Spawn(store.Name(), 0)
	for i := 0; i < cfg.Workers; i++ {
		s.workers = append(s.workers, s.proc.AddThread(fmt.Sprintf("%s-worker/%d", store.Name(), i)))
	}
	for i := 0; i < cfg.BackgroundWorkers; i++ {
		s.bg = append(s.bg, s.proc.AddThread(fmt.Sprintf("%s-bg/%d", store.Name(), i)))
	}
	return s
}

// PID returns the service's process ID (what the administrator registers
// with Holmes).
func (s *Service) PID() int { return s.proc.PID }

// Process returns the underlying kernel process.
func (s *Service) Process() *kernel.Process { return s.proc }

// Store returns the underlying store.
func (s *Service) Store() kvstore.Store { return s.store }

// Workers returns the query-serving threads.
func (s *Service) Workers() []*kernel.Thread { return s.workers }

// BackgroundThreads returns the maintenance threads.
func (s *Service) BackgroundThreads() []*kernel.Thread { return s.bg }

// Latencies returns the recorded query latency histogram (nanoseconds).
func (s *Service) Latencies() *stats.Histogram { return s.lat }

// ResetLatencies clears recorded latencies (e.g. after warmup).
func (s *Service) ResetLatencies() { s.lat.Reset() }

// Completed returns the number of queries completed within their
// deadline (all completions when no deadline is configured).
func (s *Service) Completed() int64 { return s.completed }

// Submitted returns the number of submitted queries.
func (s *Service) Submitted() int64 { return s.submitted }

// Shed returns the requests refused by admission control.
func (s *Service) Shed() int64 { return s.shed }

// Expired returns the replies that drained after their deadline.
func (s *Service) Expired() int64 { return s.expired }

// SetAdmission configures replica-side admission control: a concurrency
// limit (0 = unlimited) shedding submissions once the unresolved count
// reaches it, and a per-request deadline in nanoseconds (0 = none) past
// which a draining reply counts as expired instead of completed.
// Expired replies still record their latency — the SLI must see the
// slowness that killed them.
func (s *Service) SetAdmission(limit, deadlineNs int64) {
	s.concLimit = limit
	s.deadlineNs = deadlineNs
}

// Load performs the YCSB load phase directly (no latency recording): the
// data is in place before the measured run, as with a real preloaded
// store.
func (s *Service) Load(gen *ycsb.Generator) {
	gen.LoadOps(func(key string, value []byte) {
		s.store.Insert(key, value)
	})
	if b, ok := s.store.(kvstore.Backgrounder); ok {
		b.DrainBackground() // discard load-phase maintenance
	}
}

// Submit executes op against the store and enqueues its cost on a worker
// thread. The recorded latency spans from now to the completion of the
// final work item, so it includes queueing behind earlier requests.
func (s *Service) Submit(op ycsb.Op, nowNs int64) {
	s.SubmitCB(op, nowNs, nil)
}

// SubmitCB is Submit with an outcome callback and the configured
// admission policy applied: a shed outcome fires synchronously inside
// the call; completed/expired fire when the reply drains, from the
// serving node's simulation. The callback must only touch state owned
// by that node's side of the control-plane handoff.
func (s *Service) SubmitCB(op ycsb.Op, nowNs int64, done func(oc Outcome, latNs int64)) {
	s.submitted++
	if s.concLimit > 0 && s.submitted-s.completed-s.expired-s.shed > s.concLimit {
		s.shed++
		if done != nil {
			done(OutcomeShed, 0)
		}
		return
	}
	var res kvstore.Result
	switch op.Type {
	case ycsb.OpRead:
		res = s.store.Read(op.Key)
	case ycsb.OpUpdate:
		res = s.store.Update(op.Key, op.Value)
	case ycsb.OpInsert:
		res = s.store.Insert(op.Key, op.Value)
	case ycsb.OpScan:
		res = s.store.Scan(op.Key, op.ScanLen)
		if !res.Found {
			// Store without scan support (Memcached): count and drop.
			// For callers tracking resolution it resolves as shed — no
			// work was done and no reply will drain.
			s.unsupported++
			s.shed++
			if done != nil {
				done(OutcomeShed, 0)
			}
			return
		}
	case ycsb.OpReadModifyWrite:
		r1 := s.store.Read(op.Key)
		r2 := s.store.Update(op.Key, op.Value)
		r1.Cost.Add(r2.Cost)
		r1.SSDReads += r2.SSDReads
		res = r1
	}

	res.Cost.Add(s.overhead)
	items := res.Items(func(doneNs int64) {
		latNs := doneNs - nowNs
		s.lat.Add(float64(latNs))
		if s.deadlineNs > 0 && latNs > s.deadlineNs {
			s.expired++
			if done != nil {
				done(OutcomeExpired, latNs)
			}
			return
		}
		s.completed++
		if done != nil {
			done(OutcomeCompleted, latNs)
		}
	})
	s.dispatch(items)
	s.drainBackground()
}

// dispatch places a request's items on a worker thread round-robin.
func (s *Service) dispatch(items []workload.Item) {
	w := s.workers[s.nextW%len(s.workers)]
	s.nextW++
	w.HW.Push(items...)
}

// drainBackground forwards pending maintenance to background threads.
func (s *Service) drainBackground() {
	b, ok := s.store.(kvstore.Backgrounder)
	if !ok || len(s.bg) == 0 {
		return
	}
	for _, task := range b.DrainBackground() {
		t := s.bg[s.nextBG%len(s.bg)]
		s.nextBG++
		t.HW.Push(task.Items()...)
	}
}

// Unsupported returns the count of dropped unsupported operations.
func (s *Service) Unsupported() int64 { return s.unsupported }

// Client drives a service with the bursty YCSB traffic of §6.1 as
// simulation events.
type Client struct {
	svc     *Service
	gen     *ycsb.Generator
	traffic *ycsb.Traffic
	m       *machine.Machine

	serving bool
	stopped bool
	bursts  int
}

// NewClient builds a client; call Start to begin traffic.
func NewClient(svc *Service, gen *ycsb.Generator, traffic *ycsb.Traffic) *Client {
	return &Client{svc: svc, gen: gen, traffic: traffic, m: svc.m}
}

// Serving reports whether a burst is in progress.
func (c *Client) Serving() bool { return c.serving }

// Bursts returns the number of bursts started.
func (c *Client) Bursts() int { return c.bursts }

// Start begins the burst/gap cycle at the current simulation time.
func (c *Client) Start() { c.startBurst(c.m.Now()) }

// StartServing begins constant (non-bursty) traffic: one endless burst.
func (c *Client) StartServing() {
	c.serving = true
	c.bursts++
	c.scheduleArrival(c.m.Now(), 1<<62)
}

// Stop ends traffic generation.
func (c *Client) Stop() { c.stopped = true; c.serving = false }

func (c *Client) startBurst(nowNs int64) {
	if c.stopped {
		return
	}
	c.serving = true
	c.bursts++
	end := nowNs + c.traffic.NextBurst()
	c.scheduleArrival(nowNs, end)
	c.m.Schedule(end, func(t int64) {
		c.serving = false
		if c.stopped {
			return
		}
		c.m.Schedule(t+c.traffic.NextGap(), c.startBurst)
	})
}

func (c *Client) scheduleArrival(nowNs, burstEnd int64) {
	next := nowNs + c.traffic.NextInterArrival()
	if next >= burstEnd || c.stopped {
		return
	}
	c.m.Schedule(next, func(t int64) {
		if c.stopped {
			return
		}
		c.svc.Submit(c.gen.Next(), t)
		c.scheduleArrival(t, burstEnd)
	})
}
