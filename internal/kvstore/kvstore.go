// Package kvstore defines the common interface of the four latency-critical
// services the paper evaluates (Redis, Memcached, RocksDB, WiredTiger) and
// the shared building blocks their reproductions use: a byte-capacity LRU
// used both as a CPU-cache residency model and as block/page caches, and a
// deterministic skiplist for memtables and sorted indexes.
//
// Every store is *functional* — it really stores and returns values — and
// every operation additionally reports a workload.Cost describing the
// compute cycles and per-level memory accesses the operation would perform
// on the simulated machine, plus any synchronous SSD reads. The service
// layer turns that into work items for a hardware thread, which is where
// SMT interference turns into query latency.
package kvstore

import (
	"fmt"

	"github.com/holmes-colocation/holmes/internal/workload"
)

// Device latencies for the disk-based stores. The paper's servers use a
// local 512 GB SSD; only the relative CPU-vs-device cost matters for the
// latency CDF shapes.
const (
	// SSDReadLatencyNs is the synchronous read latency of one block.
	SSDReadLatencyNs = 80_000
	// SSDWriteLatencyNs is the device-side cost of one block write;
	// writes are asynchronous on the query path (WAL group commit) and
	// only background threads wait on them.
	SSDWriteLatencyNs = 30_000
)

// Result is the outcome of a store operation.
type Result struct {
	// Found reports whether the key existed (reads/updates) or whether
	// the operation succeeded (inserts/scans).
	Found bool
	// Value is the value read; nil for writes and scans. It aliases the
	// stored bytes (the slice Update or Insert kept), so it is read-only.
	Value []byte
	// ScanCount is the number of records visited by a scan.
	ScanCount int
	// Cost is the CPU and memory work of the operation.
	Cost workload.Cost
	// SSDReads counts synchronous device reads on the query path; each
	// blocks the serving thread for SSDReadLatencyNs.
	SSDReads int
}

// Items converts the result into the work-item sequence a serving thread
// executes: the memory/compute work, with any synchronous SSD reads
// interleaved. onComplete is attached to the final item.
func (r Result) Items(onComplete func(nowNs int64)) []workload.Item {
	if r.SSDReads == 0 {
		return []workload.Item{{Cost: r.Cost, OnComplete: onComplete}}
	}
	// Split the CPU work around the device reads: index/bloom work
	// before the first read, decode work after the last.
	pre := r.Cost.Scale(0.5)
	post := r.Cost.Scale(0.5)
	items := make([]workload.Item, 0, r.SSDReads+2)
	items = append(items, workload.Item{Cost: pre})
	for i := 0; i < r.SSDReads; i++ {
		items = append(items, workload.Sleep(SSDReadLatencyNs))
	}
	items = append(items, workload.Item{Cost: post, OnComplete: onComplete})
	return items
}

// BackgroundTask is deferred maintenance work (memtable flush, compaction,
// page eviction, checkpoint) that a store hands to its background threads.
type BackgroundTask struct {
	Desc      string
	Cost      workload.Cost
	SSDReads  int
	SSDWrites int
}

// Items converts the background task into thread work items.
func (b BackgroundTask) Items() []workload.Item {
	items := []workload.Item{{Cost: b.Cost}}
	for i := 0; i < b.SSDReads; i++ {
		items = append(items, workload.Sleep(SSDReadLatencyNs))
	}
	for i := 0; i < b.SSDWrites; i++ {
		items = append(items, workload.Sleep(SSDWriteLatencyNs))
	}
	return items
}

// Store is the interface all four services implement.
//
// Values are read-only. Update and Insert keep the caller's slice as the
// stored value and must never write into it: the YCSB generator hands out
// windows of one shared pool (ycsb.Generator.Value), so a write would
// corrupt other records. Stores account values by length only.
type Store interface {
	// Name returns the service name ("redis", "rocksdb", ...).
	Name() string
	// Read fetches a value.
	Read(key string) Result
	// Update overwrites an existing key (YCSB update semantics: the key
	// is expected to exist, but updating a missing key inserts it).
	Update(key string, value []byte) Result
	// Insert adds a new record.
	Insert(key string, value []byte) Result
	// Scan visits up to count records starting at the first key >= start.
	// Stores without range support return Found == false (Memcached).
	Scan(start string, count int) Result
	// Len returns the number of records.
	Len() int
	// Clone returns an independent copy of the store. Everything an
	// operation can change is copied: the data and its indexes, the
	// cache and residency models, random-generator states, pending
	// background work and counters. The clone and the original then
	// answer the same operations with the same Results, and neither sees
	// the other's writes. Keys and values are shared, which is safe
	// because values are read-only.
	Clone() Store
}

// Backgrounder is implemented by stores with background maintenance
// threads (RocksDB compaction, WiredTiger eviction/checkpoints, Redis
// background saves).
type Backgrounder interface {
	// DrainBackground returns and clears pending background work.
	DrainBackground() []BackgroundTask
}

// MemoryReporter is implemented by stores that account their resident
// memory, backing the paper's §6.3 memory-utilization observations.
type MemoryReporter interface {
	// ApproxMemory returns the approximate resident bytes.
	ApproxMemory() int64
}

// ErrUnsupported marks operations a store cannot perform.
var ErrUnsupported = fmt.Errorf("kvstore: operation not supported")

// touchCost charges an access of n bytes at the given residency level:
// the bookkeeping every store shares.
func touchCost(level workload.Level, bytes int64, write bool) workload.Cost {
	if write {
		return workload.WriteBytes(level, bytes)
	}
	return workload.ReadBytes(level, bytes)
}
