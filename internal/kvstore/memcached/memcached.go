// Package memcached reproduces the Memcached service of the evaluation: a
// flat in-memory cache with a chained hash table, slab-allocated values and
// per-size-class LRU eviction. Memcached has no range queries, so Scan
// reports unsupported — which is why the paper has no workload-e results
// for it (§6.2).
package memcached

import (
	"container/list"
	"fmt"

	"github.com/holmes-colocation/holmes/internal/kvstore"
	"github.com/holmes-colocation/holmes/internal/workload"
)

// Config parameterizes the store.
type Config struct {
	// MemoryLimit is the slab memory budget (memcached -m), in bytes.
	MemoryLimit int64
	// LLCBytes sizes the CPU-cache residency model.
	LLCBytes int64
	// HashPower is log2 of the initial bucket count (memcached -o
	// hashpower); the table doubles when load factor exceeds 1.5.
	HashPower int
}

// DefaultConfig mirrors a 1 GB cache instance.
func DefaultConfig() Config {
	return Config{
		MemoryLimit: 1 << 30,
		LLCBytes:    kvstore.DefaultLLCBytes,
		HashPower:   16,
	}
}

type item struct {
	key     string
	value   []byte
	class   int
	lruElem *list.Element
}

// Store is the Memcached reproduction.
type Store struct {
	cfg     Config
	buckets []*bucketNode
	used    int
	slabs   *slabAllocator
	// Per-class LRU; front = most recently used.
	lrus []*list.List
	res  *kvstore.Residency

	evictions int64
	// chainSteps counts the last lookup's chain walk.
	chainSteps int
}

type bucketNode struct {
	it   *item
	next *bucketNode
}

// New creates an empty store.
func New(cfg Config) *Store {
	s := &Store{
		cfg:     cfg,
		buckets: make([]*bucketNode, 1<<cfg.HashPower),
		slabs:   newSlabAllocator(cfg.MemoryLimit),
		res:     kvstore.NewResidency(cfg.LLCBytes),
	}
	s.lrus = make([]*list.List, len(s.slabs.classes))
	for i := range s.lrus {
		s.lrus[i] = list.New()
	}
	return s
}

// Name implements kvstore.Store.
func (s *Store) Name() string { return "memcached" }

// Len implements kvstore.Store.
func (s *Store) Len() int { return s.used }

// Evictions returns the number of LRU evictions so far.
func (s *Store) Evictions() int64 { return s.evictions }

// UsedBytes returns slab memory held by live items.
func (s *Store) UsedBytes() int64 { return s.slabs.usedBytes() }

// ApproxMemory implements kvstore.MemoryReporter: slab pages plus the
// hash table.
func (s *Store) ApproxMemory() int64 {
	return s.slabs.allocated + int64(len(s.buckets))*8
}

func hashKey(key string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return h
}

func (s *Store) lookup(key string) *item {
	s.chainSteps = 0
	idx := hashKey(key) & uint64(len(s.buckets)-1)
	for n := s.buckets[idx]; n != nil; n = n.next {
		s.chainSteps++
		if n.it.key == key {
			return n.it
		}
	}
	return nil
}

func (s *Store) insertBucket(it *item) {
	idx := hashKey(it.key) & uint64(len(s.buckets)-1)
	s.buckets[idx] = &bucketNode{it: it, next: s.buckets[idx]}
	s.used++
	if float64(s.used) > 1.5*float64(len(s.buckets)) {
		s.growTable()
	}
}

func (s *Store) removeBucket(key string) *item {
	idx := hashKey(key) & uint64(len(s.buckets)-1)
	var prev *bucketNode
	for n := s.buckets[idx]; n != nil; n = n.next {
		if n.it.key == key {
			if prev == nil {
				s.buckets[idx] = n.next
			} else {
				prev.next = n.next
			}
			s.used--
			return n.it
		}
		prev = n
	}
	return nil
}

func (s *Store) growTable() {
	old := s.buckets
	s.buckets = make([]*bucketNode, len(old)*2)
	for _, head := range old {
		for n := head; n != nil; {
			next := n.next
			idx := hashKey(n.it.key) & uint64(len(s.buckets)-1)
			n.next = s.buckets[idx]
			s.buckets[idx] = n
			n = next
		}
	}
}

// Residency tags: an item's data and its header are distinct lines in
// the LLC model.
const (
	tagItem kvstore.Tag = iota
	tagHeader
)

// itemOverhead approximates memcached's per-item header.
const itemOverhead = 56

// baseCost is the command-processing path: protocol parse, hash, chain.
func (s *Store) baseCost(key string, chainSteps int) workload.Cost {
	c := workload.Compute(150 + 4*float64(len(key)))
	c.Add(workload.MemRead(workload.L2, 2))
	for i := 0; i < chainSteps; i++ {
		c.Add(s.res.TouchRecord(tagHeader, key, itemOverhead, false))
	}
	return c
}

// Read implements kvstore.Store.
func (s *Store) Read(key string) kvstore.Result {
	it := s.lookup(key)
	cost := s.baseCost(key, s.chainSteps)
	if it == nil {
		return kvstore.Result{Found: false, Cost: cost}
	}
	s.lrus[it.class].MoveToFront(it.lruElem)
	cost.Add(s.res.TouchRecord(tagItem, key, int64(len(it.value))+itemOverhead, false))
	cost.Add(workload.WriteBytes(workload.L2, int64(len(it.value))))
	cost.Add(workload.Compute(float64(len(it.value)) / 8))
	return kvstore.Result{Found: true, Value: it.value, Cost: cost}
}

// Update implements kvstore.Store (memcached "set": insert or replace).
func (s *Store) Update(key string, value []byte) kvstore.Result {
	return s.set(key, value)
}

// Insert implements kvstore.Store.
func (s *Store) Insert(key string, value []byte) kvstore.Result {
	return s.set(key, value)
}

func (s *Store) set(key string, value []byte) kvstore.Result {
	need := int64(len(key)+len(value)) + itemOverhead
	ci := s.slabs.classFor(need)
	cost := workload.Cost{}
	if ci < 0 {
		// SERVER_ERROR object too large for cache.
		cost.Add(workload.Compute(200))
		return kvstore.Result{Found: false, Cost: cost}
	}

	if old := s.lookup(key); old != nil {
		cost.Add(s.baseCost(key, s.chainSteps))
		if old.class == ci {
			// In-place replacement within the same size class.
			old.value = value
			s.lrus[ci].MoveToFront(old.lruElem)
			cost.Add(s.res.TouchRecord(tagItem, key, need, true))
			cost.Add(workload.Compute(float64(len(value)) / 8))
			return kvstore.Result{Found: true, Cost: cost}
		}
		// Replacement lands in a different size class: release the old
		// chunk back to its class before allocating the new one.
		s.removeItem(old)
		s.slabs.free(old.class)
	} else {
		cost.Add(s.baseCost(key, s.chainSteps))
	}

	// Allocate a chunk, evicting from this class's LRU tail if needed.
	for !s.slabs.alloc(ci) {
		victim := s.lrus[ci].Back()
		if victim == nil {
			// No page available and nothing to evict in this class:
			// memcached fails the store with SERVER_ERROR.
			cost.Add(workload.Compute(300))
			return kvstore.Result{Found: false, Cost: cost}
		}
		vit := victim.Value.(*item)
		s.removeItem(vit)
		s.slabs.free(vit.class) // chunk returns to the class's free list
		s.evictions++
		cost.Add(workload.MemRead(workload.DRAM, 2)) // LRU tail + hash unlink
	}

	it := &item{key: key, value: value, class: ci}
	it.lruElem = s.lrus[ci].PushFront(it)
	s.insertBucket(it)
	cost.Add(s.res.TouchRecord(tagItem, key, need, true))
	cost.Add(workload.Compute(float64(len(value)) / 8))
	return kvstore.Result{Found: true, Cost: cost}
}

// removeItem unlinks an item from the table and its LRU, without freeing
// its chunk (callers decide whether the chunk is reused or freed).
func (s *Store) removeItem(it *item) {
	s.removeBucket(it.key)
	s.lrus[it.class].Remove(it.lruElem)
	s.res.Invalidate(tagItem, it.key)
}

// Delete removes a key.
func (s *Store) Delete(key string) kvstore.Result {
	it := s.lookup(key)
	cost := s.baseCost(key, s.chainSteps)
	if it == nil {
		return kvstore.Result{Found: false, Cost: cost}
	}
	s.removeItem(it)
	s.slabs.free(it.class)
	return kvstore.Result{Found: true, Cost: cost}
}

// Scan implements kvstore.Store. Memcached has no range queries.
func (s *Store) Scan(start string, count int) kvstore.Result {
	return kvstore.Result{Found: false, Cost: workload.Compute(50)}
}

// Err returns the unsupported-operation sentinel for Scan, for callers
// that want to distinguish "not found" from "unsupported".
func (s *Store) Err() error { return fmt.Errorf("memcached scan: %w", kvstore.ErrUnsupported) }

var _ kvstore.Store = (*Store)(nil)
