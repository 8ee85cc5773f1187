package kvstore

import (
	"hash/maphash"
	"slices"

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
// allocates only when the slab adds a chunk or the index doubles, and
// the garbage collector sees a few flat arrays rather than a pointer
// chain per entry.
//
// The index is an open-addressing table of slot+1 values (0 is empty),
// probed linearly and doubled at 3/4 load. A miss is placed in the empty
// bucket where its probe stopped, so it probes the table once. Each slot
// keeps its key and that key's hash, so the key is stored once, and
// growing the table or deleting from it (by backward shift, with no
// tombstones) never hashes a key again. Nothing iterates the table to
// produce output, so hash values cannot reach it.
//
// It is deterministic and not safe for concurrent use; the simulation is
// single-threaded.
type LRU[K comparable] struct {
	capacity int64
	used     int64
	slots    Slab[lruSlot[K]]
	hash     func(K) uint64
	table    []int32 // slot+1 per bucket, 0 = empty; len is 0 or a power of two
	n        int     // entries
	head     int32   // most recent slot, or nilSlot
	tail     int32   // least recent slot, or nilSlot
	free     int32   // first free slot (linked by next), or nilSlot
	hits     int64
	misses   int64
	evicted  int64
	// OnEvict, if set, observes evictions (used by WiredTiger to write
	// back dirty pages).
	OnEvict func(key K, size int64)
}

type lruSlot[K comparable] struct {
	key        K
	hash       uint64
	size       int64
	prev, next int32 // toward head / toward tail
}

const (
	nilSlot = -1
	// minTable is the index's first size in buckets.
	minTable = 16
)

// NewLRU creates an LRU with the given byte capacity whose index hashes
// keys with hash. A non-positive capacity yields a cache that never
// holds anything.
func NewLRU[K comparable](capacity int64, hash func(K) uint64) *LRU[K] {
	return &LRU[K]{
		capacity: capacity,
		hash:     hash,
		head:     nilSlot,
		tail:     nilSlot,
		free:     nilSlot,
	}
}

// hashSeed seeds HashString. It differs per process, which is harmless:
// a hash only picks a bucket, and no output depends on bucket order.
var hashSeed = maphash.MakeSeed()

// HashString hashes a string key for an LRU index.
func HashString(s string) uint64 { return maphash.String(hashSeed, s) }

// HashUint64 mixes an integer key for an LRU index (the splitmix64
// finalizer), so consecutive ids land in scattered buckets.
func HashUint64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// find returns the slot holding key, or nilSlot and the empty bucket
// where the probe ended, which is where key would be placed.
func (c *LRU[K]) find(key K, h uint64) (int32, uint64) {
	if len(c.table) == 0 {
		return nilSlot, 0
	}
	mask := uint64(len(c.table) - 1)
	b := h & mask
	for ; c.table[b] != 0; b = (b + 1) & mask {
		i := c.table[b] - 1
		if s := c.slots.At(i); s.hash == h && s.key == key {
			return i, b
		}
	}
	return nilSlot, b
}

// Touch records an access to key with the given size and reports whether
// it was resident. Missing keys are inserted (which may evict).
func (c *LRU[K]) Touch(key K, size int64) (hit bool) {
	h := c.hash(key)
	i, b := c.find(key, h)
	if i != nilSlot {
		c.unlink(i) // refresh before any eviction scan
		c.pushFront(i)
		if s := c.slots.At(i); s.size != size {
			c.used += size - s.size
			s.size = size
			c.evictIfNeeded()
		}
		c.hits++
		return true
	}
	c.misses++
	c.insert(key, h, b, size)
	return false
}

// Contains reports residency without updating recency or stats.
func (c *LRU[K]) Contains(key K) bool {
	i, _ := c.find(key, c.hash(key))
	return i != nilSlot
}

// Remove evicts key explicitly (invalidation), without OnEvict.
func (c *LRU[K]) Remove(key K) {
	if i, _ := c.find(key, c.hash(key)); i != nilSlot {
		c.used -= c.slots.At(i).size
		c.release(i)
	}
}

// insert adds key, which hashes to h and whose failed probe ended at
// bucket b.
func (c *LRU[K]) insert(key K, h, b uint64, size int64) {
	if c.capacity <= 0 || size > c.capacity {
		return // uncacheable
	}
	i := c.free
	if i != nilSlot {
		c.free = c.slots.At(i).next
	} else {
		i = c.slots.Add()
	}
	s := c.slots.At(i)
	s.key, s.hash, s.size = key, h, size
	c.pushFront(i)
	c.index(i, h, b)
	c.used += size
	c.evictIfNeeded()
}

// index adds slot i, whose key hashes to h, to the table at bucket b,
// the empty bucket its failed probe ended at. If the entry would take
// the table past 3/4 load, the table doubles first and the entry is
// placed by a fresh probe instead.
func (c *LRU[K]) index(i int32, h, b uint64) {
	c.n++
	if c.n*4 <= len(c.table)*3 {
		c.table[b] = i + 1
		return
	}
	old := c.table
	c.table = make([]int32, max(minTable, 2*len(old)))
	for _, v := range old {
		if v != 0 {
			c.place(v, c.slots.At(v-1).hash)
		}
	}
	c.place(i+1, h)
}

// place stores v in the first empty bucket at or after h's home bucket.
func (c *LRU[K]) place(v int32, h uint64) {
	mask := uint64(len(c.table) - 1)
	b := h & mask
	for c.table[b] != 0 {
		b = (b + 1) & mask
	}
	c.table[b] = v
}

// unindex removes slot i from the table. Each later entry of the probe
// run moves back into the hole unless its home bucket lies cyclically
// between the hole and itself, so every entry stays reachable from its
// home without tombstones.
func (c *LRU[K]) unindex(i int32) {
	mask := uint64(len(c.table) - 1)
	b := c.slots.At(i).hash & mask
	for c.table[b] != i+1 {
		b = (b + 1) & mask
	}
	for j := (b + 1) & mask; c.table[j] != 0; j = (j + 1) & mask {
		home := c.slots.At(c.table[j]-1).hash & mask
		if (j-home)&mask >= (j-b)&mask {
			c.table[b] = c.table[j]
			b = j
		}
	}
	c.table[b] = 0
	c.n--
}

func (c *LRU[K]) evictIfNeeded() {
	for c.used > c.capacity && c.tail != nilSlot {
		i := c.tail
		key, size := c.slots.At(i).key, c.slots.At(i).size
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
	s := c.slots.At(i)
	s.prev, s.next = nilSlot, c.head
	if c.head != nilSlot {
		c.slots.At(c.head).prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// unlink takes slot i out of the recency list.
func (c *LRU[K]) unlink(i int32) {
	s := c.slots.At(i)
	if s.prev != nilSlot {
		c.slots.At(s.prev).next = s.next
	} else {
		c.head = s.next
	}
	if s.next != nilSlot {
		c.slots.At(s.next).prev = s.prev
	} else {
		c.tail = s.prev
	}
}

// release unlinks slot i, drops it from the index and puts it on the
// free list.
func (c *LRU[K]) release(i int32) {
	c.unlink(i)
	c.unindex(i)
	s := c.slots.At(i)
	*s = lruSlot[K]{next: c.free} // drop the key for the GC
	c.free = i
}

// Clone returns an independent copy of the cache: its entries, recency
// order, index and stats. Keys are copied by value. OnEvict is not
// copied: a callback bound to the original's owner would act on the
// wrong state, so the clone's owner binds its own.
func (c *LRU[K]) Clone() *LRU[K] {
	d := *c
	d.slots = c.slots.Clone()
	d.table = slices.Clone(c.table)
	d.OnEvict = nil
	return &d
}

// Used returns the bytes currently cached.
func (c *LRU[K]) Used() int64 { return c.used }

// Len returns the number of cached entries.
func (c *LRU[K]) Len() int { return c.n }

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

// hash folds the tag into the key's string hash; the odd multiplier
// gives each tag distinct low bits.
func (k resKey) hash() uint64 {
	return HashString(k.key) ^ uint64(k.tag)*0x9e3779b97f4a7c15
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
	return &Residency{llc: NewLRU(llcBytes, resKey.hash)}
}

// Clone returns an independent copy of the residency model.
func (r *Residency) Clone() *Residency { return &Residency{llc: r.llc.Clone()} }

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
