package kvstore

import (
	"github.com/holmes-colocation/holmes/internal/workload"
)

// LRU is a byte-capacity LRU used in two roles:
//
//   - as a CPU-cache residency model (capacity = last-level cache size):
//     whether the lines of a record are still in L3 decides if touching it
//     costs L3 or DRAM accesses;
//   - as an application cache (RocksDB block cache, WiredTiger page cache):
//     whether a block is resident decides if a read needs the device.
//
// Entries live in one slab of slots, doubly linked by int32 indices in
// recency order; freed slots are reused through a free list. An insert
// allocates only when the slab adds a chunk, and the garbage collector
// sees a few flat arrays rather than a pointer chain per entry.
//
// It is deterministic and not safe for concurrent use; the simulation is
// single-threaded.
type LRU[K comparable] struct {
	capacity int64
	used     int64
	slots    slab[lruSlot[K]]
	index    map[K]int32 // key -> slot
	head     int32       // most recent slot, or nilSlot
	tail     int32       // least recent slot, or nilSlot
	free     int32       // first free slot (linked by next), or nilSlot
	hits     int64
	misses   int64
	evicted  int64
	// OnEvict, if set, observes evictions (used by WiredTiger to write
	// back dirty pages).
	OnEvict func(key K, size int64)
}

type lruSlot[K comparable] struct {
	key        K
	size       int64
	prev, next int32 // toward head / toward tail
}

const nilSlot = -1

// NewLRU creates an LRU with the given byte capacity. A non-positive
// capacity yields a cache that never holds anything.
func NewLRU[K comparable](capacity int64) *LRU[K] {
	return &LRU[K]{
		capacity: capacity,
		index:    map[K]int32{},
		head:     nilSlot,
		tail:     nilSlot,
		free:     nilSlot,
	}
}

// Touch records an access to key with the given size and reports whether
// it was resident. Missing keys are inserted (which may evict).
func (c *LRU[K]) Touch(key K, size int64) (hit bool) {
	if i, ok := c.index[key]; ok {
		c.unlink(i) // refresh before any eviction scan
		c.pushFront(i)
		if s := c.slots.at(i); s.size != size {
			c.used += size - s.size
			s.size = size
			c.evictIfNeeded()
		}
		c.hits++
		return true
	}
	c.misses++
	c.insert(key, size)
	return false
}

// Contains reports residency without updating recency or stats.
func (c *LRU[K]) Contains(key K) bool {
	_, ok := c.index[key]
	return ok
}

// Remove evicts key explicitly (invalidation), without OnEvict.
func (c *LRU[K]) Remove(key K) {
	if i, ok := c.index[key]; ok {
		c.used -= c.slots.at(i).size
		c.release(i)
	}
}

func (c *LRU[K]) insert(key K, size int64) {
	if c.capacity <= 0 || size > c.capacity {
		return // uncacheable
	}
	i := c.free
	if i != nilSlot {
		c.free = c.slots.at(i).next
	} else {
		i = c.slots.add()
	}
	s := c.slots.at(i)
	s.key, s.size = key, size
	c.pushFront(i)
	c.index[key] = i
	c.used += size
	c.evictIfNeeded()
}

func (c *LRU[K]) evictIfNeeded() {
	for c.used > c.capacity && c.tail != nilSlot {
		i := c.tail
		key, size := c.slots.at(i).key, c.slots.at(i).size
		c.used -= size
		c.release(i)
		c.evicted++
		if c.OnEvict != nil {
			c.OnEvict(key, size)
		}
	}
}

// pushFront links slot i in as the most recent entry.
func (c *LRU[K]) pushFront(i int32) {
	s := c.slots.at(i)
	s.prev, s.next = nilSlot, c.head
	if c.head != nilSlot {
		c.slots.at(c.head).prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// unlink takes slot i out of the recency list.
func (c *LRU[K]) unlink(i int32) {
	s := c.slots.at(i)
	if s.prev != nilSlot {
		c.slots.at(s.prev).next = s.next
	} else {
		c.head = s.next
	}
	if s.next != nilSlot {
		c.slots.at(s.next).prev = s.prev
	} else {
		c.tail = s.prev
	}
}

// release unlinks slot i, forgets its key and puts it on the free list.
func (c *LRU[K]) release(i int32) {
	c.unlink(i)
	s := c.slots.at(i)
	delete(c.index, s.key)
	*s = lruSlot[K]{next: c.free} // drop the key for the GC
	c.free = i
}

// Used returns the bytes currently cached.
func (c *LRU[K]) Used() int64 { return c.used }

// Len returns the number of cached entries.
func (c *LRU[K]) Len() int { return len(c.index) }

// Stats returns (hits, misses, evictions).
func (c *LRU[K]) Stats() (hits, misses, evicted int64) {
	return c.hits, c.misses, c.evicted
}

// Tag namespaces the residency keys of one store, so a record, its
// entry header, a block and a page can share the one LLC model without
// building a prefixed string per access.
type Tag uint8

// resKey names one residency entry: a store-chosen tag and a key.
type resKey struct {
	tag Tag
	key string
}

// Residency is the CPU-cache residency model shared by the stores: a
// last-level-cache-sized LRU over tagged record keys. Touching a
// resident record costs L3 accesses; a non-resident one costs DRAM
// accesses. Hot metadata (hashtable heads, skiplist towers, inner B-tree
// pages) is charged at L2.
type Residency struct {
	llc *LRU[resKey]
}

// DefaultLLCBytes approximates the evaluation server's shared L3 slice
// available to a service (32 MB package L3, shared with co-runners).
const DefaultLLCBytes = 24 << 20

// NewResidency creates a residency model with the given LLC capacity.
func NewResidency(llcBytes int64) *Residency {
	return &Residency{llc: NewLRU[resKey](llcBytes)}
}

// TouchRecord charges an access of size bytes to the object (tag, key),
// returning the access cost at the appropriate hierarchy level. Keys
// under different tags are distinct entries.
func (r *Residency) TouchRecord(tag Tag, key string, size int64, write bool) workload.Cost {
	if r.llc.Touch(resKey{tag, key}, size) {
		return touchCost(workload.L3, size, write)
	}
	return touchCost(workload.DRAM, size, write)
}

// Invalidate removes (tag, key) from the residency model (e.g. on
// delete).
func (r *Residency) Invalidate(tag Tag, key string) { r.llc.Remove(resKey{tag, key}) }

// HitRate returns the residency hit fraction so far (0 when untouched).
func (r *Residency) HitRate() float64 {
	h, m, _ := r.llc.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
