// Package wiredtiger reproduces the WiredTiger service of the evaluation:
// a B+tree storage engine with an in-memory page cache, dirty-page
// eviction, a write-ahead log, and periodic checkpoints — the engine
// behind MongoDB. Reads either find their leaf page in cache (memory
// speed) or fault it from the simulated SSD; together with RocksDB this
// produces the disk-store behaviour of Figs. 9 and 8.
package wiredtiger

import (
	"fmt"
	"maps"
	"slices"

	"github.com/holmes-colocation/holmes/internal/kvstore"
	"github.com/holmes-colocation/holmes/internal/workload"
)

// Config parameterizes the engine.
type Config struct {
	Seed uint64
	// LLCBytes sizes the CPU-cache residency model.
	LLCBytes int64
	// LeafPageBytes is the maximum in-memory leaf page size (WiredTiger
	// memory_page_max is larger; 32 KB keeps fault costs realistic for
	// the simulated device).
	LeafPageBytes int64
	// InnerFanout bounds inner node width.
	InnerFanout int
	// CacheBytes is the page cache capacity (cache_size).
	CacheBytes int64
	// CheckpointEveryOps triggers a checkpoint after this many writes.
	CheckpointEveryOps int
}

// DefaultConfig mirrors a small WiredTiger 3.2 instance.
func DefaultConfig() Config {
	return Config{
		Seed:               1,
		LLCBytes:           kvstore.DefaultLLCBytes,
		LeafPageBytes:      32 << 10,
		InnerFanout:        64,
		CacheBytes:         64 << 20,
		CheckpointEveryOps: 20000,
	}
}

// Store is the WiredTiger reproduction.
type Store struct {
	cfg  Config
	tree *btree
	// cache tracks which leaf pages are resident; eviction of a dirty
	// page queues a background reconciliation write.
	cache *kvstore.LRU[int64]
	res   *kvstore.Residency

	// pageDirty tracks dirty leaf pages by page id; eviction callbacks
	// consult it to decide whether a reconciliation write is needed.
	pageDirty map[int64]bool

	bg             []kvstore.BackgroundTask
	evictionWrites int64
	checkpoints    int64
	writesSinceCkp int
	count          int
}

// New creates an empty store.
func New(cfg Config) *Store {
	s := &Store{
		cfg:   cfg,
		tree:  newBtree(cfg.LeafPageBytes, cfg.InnerFanout),
		cache: kvstore.NewLRU(cfg.CacheBytes, func(id int64) uint64 { return kvstore.HashUint64(uint64(id)) }),
		res:   kvstore.NewResidency(cfg.LLCBytes),
	}
	s.cache.OnEvict = s.evicted
	s.pageDirty = map[int64]bool{}
	return s
}

// evicted observes a page leaving the cache. Dirty pages are reconciled
// to the device on eviction. The node pointer is not tracked here;
// pageDirty carries the dirty bit by page id.
func (s *Store) evicted(id int64, size int64) {
	if s.pageDirty[id] {
		delete(s.pageDirty, id)
		s.evictionWrites++
		s.bg = append(s.bg, kvstore.BackgroundTask{
			Desc:      "evict+reconcile " + pageKey(id),
			Cost:      workload.ReadBytes(workload.DRAM, size),
			SSDWrites: int(size/4096) + 1,
		})
	}
}

// Clone implements kvstore.Store. The clone's page cache reports its
// evictions to the clone.
func (s *Store) Clone() kvstore.Store {
	c := new(Store)
	*c = *s
	c.tree = s.tree.clone()
	c.cache = s.cache.Clone()
	c.cache.OnEvict = c.evicted
	c.res = s.res.Clone()
	c.pageDirty = maps.Clone(s.pageDirty)
	c.bg = slices.Clone(s.bg)
	return c
}

// Name implements kvstore.Store.
func (s *Store) Name() string { return "wiredtiger" }

// Len implements kvstore.Store.
func (s *Store) Len() int { return s.count }

// ApproxMemory implements kvstore.MemoryReporter: resident leaf pages
// plus inner-node structure.
func (s *Store) ApproxMemory() int64 {
	return s.cache.Used() + int64(s.tree.leaves)*64
}

// Checkpoints returns the number of checkpoints taken.
func (s *Store) Checkpoints() int64 { return s.checkpoints }

// EvictionWrites returns the number of dirty-page eviction writes.
func (s *Store) EvictionWrites() int64 { return s.evictionWrites }

// Leaves returns the number of leaf pages.
func (s *Store) Leaves() int { return s.tree.leaves }

// DrainBackground implements kvstore.Backgrounder.
func (s *Store) DrainBackground() []kvstore.BackgroundTask {
	out := s.bg
	s.bg = nil
	return out
}

// pageKey names a page; a leaf formats its name once, when created.
func pageKey(id int64) string { return fmt.Sprintf("p%08d", id) }

// Residency tags: leaf pages and records are distinct lines in the LLC
// model.
const (
	tagRecord kvstore.Tag = iota
	tagPage
)

// touchPage charges a leaf page access: resident pages cost memory reads,
// faults cost a device read plus insertion.
func (s *Store) touchPage(n *node, cost *workload.Cost, ssdReads *int) {
	size := n.bytes
	if size < 512 {
		size = 512
	}
	if s.cache.Touch(n.id, size) {
		// Page header + binary search lines, residency-modeled.
		cost.Add(s.res.TouchRecord(tagPage, n.name, 256, false))
		return
	}
	*ssdReads++
	cost.Add(workload.WriteBytes(workload.DRAM, size))
	cost.Add(workload.Compute(float64(size) / 16)) // page image parse
}

// descendCost charges the inner-node walk; inner pages are hot.
func descendCost(steps int, cost *workload.Cost) {
	cost.Add(workload.Compute(150 + 80*float64(steps)))
	cost.Add(workload.MemRead(workload.L2, int64(2*steps+2)))
}

// Read implements kvstore.Store.
func (s *Store) Read(key string) kvstore.Result {
	var cost workload.Cost
	ssdReads := 0
	leaf, steps := s.tree.descend(key)
	descendCost(steps, &cost)
	s.touchPage(leaf, &cost, &ssdReads)
	v, ok := leaf.get(key)
	if !ok {
		return kvstore.Result{Found: false, Cost: cost, SSDReads: ssdReads}
	}
	cost.Add(s.res.TouchRecord(tagRecord, key, int64(len(v)), false))
	cost.Add(workload.WriteBytes(workload.L2, int64(len(v))))
	cost.Add(workload.Compute(float64(len(v)) / 8))
	return kvstore.Result{Found: true, Value: v, Cost: cost, SSDReads: ssdReads}
}

// Update implements kvstore.Store.
func (s *Store) Update(key string, value []byte) kvstore.Result {
	return s.write(key, value)
}

// Insert implements kvstore.Store.
func (s *Store) Insert(key string, value []byte) kvstore.Result {
	return s.write(key, value)
}

func (s *Store) write(key string, value []byte) kvstore.Result {
	var cost workload.Cost
	ssdReads := 0
	// The leaf must be resident to modify: fault it in if needed.
	leaf, steps := s.tree.descend(key)
	descendCost(steps, &cost)
	s.touchPage(leaf, &cost, &ssdReads)

	isNew, split := s.tree.set(leaf, key, value)
	s.pageDirty[leaf.id] = true
	if isNew {
		s.count++
	}

	// WAL append (group commit, asynchronous on the query path).
	recBytes := recordBytes(key, value)
	cost.Add(workload.Compute(150))
	cost.Add(workload.WriteBytes(workload.L2, recBytes))
	cost.Add(s.res.TouchRecord(tagRecord, key, int64(len(value)), true))

	if split {
		// Split copies half the page and dirties the new sibling.
		cost.Add(workload.ReadBytes(workload.DRAM, s.cfg.LeafPageBytes/2))
		cost.Add(workload.WriteBytes(workload.DRAM, s.cfg.LeafPageBytes/2))
		if leaf.next != nil {
			s.pageDirty[leaf.next.id] = true
			s.cache.Touch(leaf.next.id, leaf.next.bytes)
		}
	}

	s.writesSinceCkp++
	if s.writesSinceCkp >= s.cfg.CheckpointEveryOps {
		s.checkpoint()
	}
	return kvstore.Result{Found: true, Cost: cost, SSDReads: ssdReads}
}

// Delete removes a key.
func (s *Store) Delete(key string) kvstore.Result {
	var cost workload.Cost
	ssdReads := 0
	leaf, steps := s.tree.descend(key)
	descendCost(steps, &cost)
	s.touchPage(leaf, &cost, &ssdReads)
	ok := s.tree.delete(leaf, key)
	if ok {
		s.count--
		s.pageDirty[leaf.id] = true
		s.res.Invalidate(tagRecord, key)
	}
	return kvstore.Result{Found: ok, Cost: cost, SSDReads: ssdReads}
}

// Scan implements kvstore.Store: position at start and walk the leaf
// chain.
func (s *Store) Scan(start string, count int) kvstore.Result {
	var cost workload.Cost
	ssdReads := 0
	leaf, steps := s.tree.descend(start)
	descendCost(steps, &cost)
	leaf, i := leaf.seek(start)
	visited := 0
	for leaf != nil && visited < count {
		s.touchPage(leaf, &cost, &ssdReads)
		for ; i < len(leaf.keys) && visited < count; i++ {
			v := leaf.values[i]
			cost.Add(s.res.TouchRecord(tagRecord, leaf.keys[i], int64(len(v)), false))
			cost.Add(workload.Compute(float64(len(v)) / 16))
			visited++
		}
		leaf = leaf.next
		i = 0
	}
	return kvstore.Result{Found: true, ScanCount: visited, Cost: cost, SSDReads: ssdReads}
}

// checkpoint queues a background write of every dirty page.
func (s *Store) checkpoint() {
	s.writesSinceCkp = 0
	s.checkpoints++
	var dirtyBytes int64
	pages := 0
	s.tree.walkLeaves(func(n *node) {
		if s.pageDirty[n.id] {
			dirtyBytes += n.bytes
			pages++
			delete(s.pageDirty, n.id)
		}
	})
	if pages == 0 {
		return
	}
	s.bg = append(s.bg, kvstore.BackgroundTask{
		Desc:      fmt.Sprintf("checkpoint (%d pages, %d bytes)", pages, dirtyBytes),
		Cost:      addCosts(workload.ReadBytes(workload.DRAM, dirtyBytes), workload.Compute(float64(dirtyBytes)/8)),
		SSDWrites: int(dirtyBytes/4096) + 1,
	})
}

func addCosts(a, b workload.Cost) workload.Cost {
	a.Add(b)
	return a
}

var (
	_ kvstore.Store        = (*Store)(nil)
	_ kvstore.Backgrounder = (*Store)(nil)
)
