// Package memcached reproduces the Memcached service of the evaluation: a
// flat in-memory cache with a chained hash table, slab-allocated values and
// per-size-class LRU eviction. Memcached has no range queries, so Scan
// reports unsupported — which is why the paper has no workload-e results
// for it (§6.2).
package memcached

import (
	"fmt"
	"slices"

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

// item is one stored record. Items live in a slab and link to each
// other by slot index: chain to the next item of the same hash bucket,
// prev and next along the item's class LRU.
type item struct {
	key        string
	value      []byte
	class      int32
	chain      int32 // next item in the bucket, or nilItem
	prev, next int32 // toward the LRU head / tail, or nilItem
}

// nilItem ends a bucket chain or an LRU list.
const nilItem = -1

// classLRU is one slab class's recency list: head is the most recently
// used item.
type classLRU struct{ head, tail int32 }

// Store is the Memcached reproduction.
type Store struct {
	cfg     Config
	buckets []int32 // first item of each chain, or nilItem
	items   kvstore.Slab[item]
	free    int32 // first free item slot (linked by chain), or nilItem
	used    int
	slabs   *slabAllocator
	lrus    []classLRU // per slab class
	res     *kvstore.Residency

	evictions int64
	// chainSteps counts the last lookup's chain walk.
	chainSteps int
}

// New creates an empty store.
func New(cfg Config) *Store {
	s := &Store{
		cfg:     cfg,
		buckets: newBuckets(1 << cfg.HashPower),
		free:    nilItem,
		slabs:   newSlabAllocator(cfg.MemoryLimit),
		res:     kvstore.NewResidency(cfg.LLCBytes),
	}
	s.lrus = make([]classLRU, len(s.slabs.classes))
	for i := range s.lrus {
		s.lrus[i] = classLRU{nilItem, nilItem}
	}
	return s
}

// newBuckets returns n empty buckets.
func newBuckets(n int) []int32 {
	b := make([]int32, n)
	for i := range b {
		b[i] = nilItem
	}
	return b
}

// Clone implements kvstore.Store. Items link by index, so copying the
// arrays copies every chain and LRU list.
func (s *Store) Clone() kvstore.Store {
	c := *s
	c.buckets = slices.Clone(s.buckets)
	c.items = s.items.Clone()
	slabs := *s.slabs
	slabs.classes = slices.Clone(s.slabs.classes)
	c.slabs = &slabs
	c.lrus = slices.Clone(s.lrus)
	c.res = s.res.Clone()
	return &c
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
// hash table (modelled at memcached's 8 bytes per bucket pointer).
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

func (s *Store) bucket(key string) *int32 {
	return &s.buckets[hashKey(key)&uint64(len(s.buckets)-1)]
}

// lookup returns key's item, or nilItem.
func (s *Store) lookup(key string) int32 {
	s.chainSteps = 0
	for i := *s.bucket(key); i != nilItem; i = s.items.At(i).chain {
		s.chainSteps++
		if s.items.At(i).key == key {
			return i
		}
	}
	return nilItem
}

// insertBucket puts item i at the head of its bucket's chain.
func (s *Store) insertBucket(i int32) {
	b := s.bucket(s.items.At(i).key)
	s.items.At(i).chain = *b
	*b = i
	s.used++
	if float64(s.used) > 1.5*float64(len(s.buckets)) {
		s.growTable()
	}
}

// removeBucket unlinks item i from its bucket's chain.
func (s *Store) removeBucket(i int32) {
	link := s.bucket(s.items.At(i).key)
	for *link != i {
		link = &s.items.At(*link).chain
	}
	*link = s.items.At(i).chain
	s.used--
}

func (s *Store) growTable() {
	old := s.buckets
	s.buckets = newBuckets(len(old) * 2)
	for _, head := range old {
		for i := head; i != nilItem; {
			it := s.items.At(i)
			next := it.chain
			b := s.bucket(it.key)
			it.chain = *b
			*b = i
			i = next
		}
	}
}

// pushFront links item i in as its class's most recent item.
func (s *Store) pushFront(i int32) {
	it := s.items.At(i)
	l := &s.lrus[it.class]
	it.prev, it.next = nilItem, l.head
	if l.head != nilItem {
		s.items.At(l.head).prev = i
	} else {
		l.tail = i
	}
	l.head = i
}

// unlink takes item i out of its class LRU.
func (s *Store) unlink(i int32) {
	it := s.items.At(i)
	l := &s.lrus[it.class]
	if it.prev != nilItem {
		s.items.At(it.prev).next = it.next
	} else {
		l.head = it.next
	}
	if it.next != nilItem {
		s.items.At(it.next).prev = it.prev
	} else {
		l.tail = it.prev
	}
}

// touch makes item i its class's most recent item.
func (s *Store) touch(i int32) {
	s.unlink(i)
	s.pushFront(i)
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
	i := s.lookup(key)
	cost := s.baseCost(key, s.chainSteps)
	if i == nilItem {
		return kvstore.Result{Found: false, Cost: cost}
	}
	s.touch(i)
	it := s.items.At(i)
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

	if old := s.lookup(key); old != nilItem {
		cost.Add(s.baseCost(key, s.chainSteps))
		if it := s.items.At(old); int(it.class) == ci {
			// In-place replacement within the same size class.
			it.value = value
			s.touch(old)
			cost.Add(s.res.TouchRecord(tagItem, key, need, true))
			cost.Add(workload.Compute(float64(len(value)) / 8))
			return kvstore.Result{Found: true, Cost: cost}
		}
		// Replacement lands in a different size class: release the old
		// chunk back to its class before allocating the new one.
		s.remove(old)
	} else {
		cost.Add(s.baseCost(key, s.chainSteps))
	}

	// Allocate a chunk, evicting from this class's LRU tail if needed.
	for !s.slabs.alloc(ci) {
		victim := s.lrus[ci].tail
		if victim == nilItem {
			// No page available and nothing to evict in this class:
			// memcached fails the store with SERVER_ERROR.
			cost.Add(workload.Compute(300))
			return kvstore.Result{Found: false, Cost: cost}
		}
		s.remove(victim) // its chunk returns to the class's free list
		s.evictions++
		cost.Add(workload.MemRead(workload.DRAM, 2)) // LRU tail + hash unlink
	}

	i := s.free
	if i != nilItem {
		s.free = s.items.At(i).chain
	} else {
		i = s.items.Add()
	}
	*s.items.At(i) = item{key: key, value: value, class: int32(ci)}
	s.pushFront(i)
	s.insertBucket(i)
	cost.Add(s.res.TouchRecord(tagItem, key, need, true))
	cost.Add(workload.Compute(float64(len(value)) / 8))
	return kvstore.Result{Found: true, Cost: cost}
}

// remove unlinks item i from the table and its LRU, frees its chunk and
// puts its slot on the free list.
func (s *Store) remove(i int32) {
	s.removeBucket(i)
	s.unlink(i)
	it := s.items.At(i)
	s.res.Invalidate(tagItem, it.key)
	s.slabs.free(int(it.class))
	*it = item{chain: s.free} // drop the key and value for the GC
	s.free = i
}

// Delete removes a key.
func (s *Store) Delete(key string) kvstore.Result {
	i := s.lookup(key)
	cost := s.baseCost(key, s.chainSteps)
	if i == nilItem {
		return kvstore.Result{Found: false, Cost: cost}
	}
	s.remove(i)
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
