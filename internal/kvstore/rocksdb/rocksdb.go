// Package rocksdb reproduces the RocksDB service of the evaluation: a
// leveled LSM tree with a skiplist memtable, write-ahead log, bloom
// filters, a block cache, and background flush/compaction. Updates are
// asynchronous (memtable + WAL) and return quickly; reads either hit the
// memtable/block cache (memory speed) or pay a synchronous SSD block read
// — the two modes behind the stair-shaped latency CDFs of Fig. 8.
package rocksdb

import (
	"fmt"
	"slices"
	"sort"

	"github.com/holmes-colocation/holmes/internal/kvstore"
	"github.com/holmes-colocation/holmes/internal/workload"
)

// Config parameterizes the store.
type Config struct {
	Seed uint64
	// LLCBytes sizes the CPU-cache residency model.
	LLCBytes int64
	// MemtableBytes triggers a flush when the active memtable exceeds it.
	MemtableBytes int64
	// BlockCacheBytes is the block cache capacity.
	BlockCacheBytes int64
	// LevelBaseBytes is the L1 size budget; each deeper level is 10x.
	LevelBaseBytes int64
	// MaxTableBytes bounds the size of tables produced by compaction.
	MaxTableBytes int64
}

// Fixed table-format and compaction settings of the RocksDB 6 setup.
const (
	// blockBytes is the data block size (RocksDB default 4 KB).
	blockBytes = 4 << 10
	// l0CompactionTrigger compacts L0 into L1 at this many L0 tables.
	l0CompactionTrigger = 4
	// bloomBitsPerKey is the filter budget.
	bloomBitsPerKey = 10
)

// DefaultConfig mirrors a small-instance RocksDB 6 setup.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		LLCBytes:        kvstore.DefaultLLCBytes,
		MemtableBytes:   4 << 20,
		BlockCacheBytes: 64 << 20,
		LevelBaseBytes:  32 << 20,
		MaxTableBytes:   8 << 20,
	}
}

const numLevels = 7

// Store is the RocksDB reproduction.
type Store struct {
	cfg Config

	mem      *kvstore.Skiplist
	memBytes int64
	memSeq   uint64 // seeds successive memtables deterministically

	levels     [numLevels][]*sstable // level 0 ordered newest-first
	nextSSTID  int64
	blockCache *kvstore.LRU[blockID]
	res        *kvstore.Residency

	walBytes int64
	bg       []kvstore.BackgroundTask

	flushes     int64
	compactions int64
}

// New creates an empty store.
func New(cfg Config) *Store {
	return &Store{
		cfg:        cfg,
		mem:        kvstore.NewSkiplist(cfg.Seed),
		blockCache: kvstore.NewLRU(cfg.BlockCacheBytes, blockID.hash),
		res:        kvstore.NewResidency(cfg.LLCBytes),
	}
}

// Clone implements kvstore.Store. The sstables are immutable, so the
// clone's level slices point at the same tables.
func (s *Store) Clone() kvstore.Store {
	c := *s
	c.mem = s.mem.Clone()
	for l := range s.levels {
		c.levels[l] = slices.Clone(s.levels[l])
	}
	c.blockCache = s.blockCache.Clone()
	c.res = s.res.Clone()
	c.bg = slices.Clone(s.bg)
	return &c
}

// Name implements kvstore.Store.
func (s *Store) Name() string { return "rocksdb" }

// Len returns the number of live records (scanning all levels; intended
// for tests, not the hot path).
func (s *Store) Len() int {
	seen := map[string]bool{}
	live := 0
	consider := func(e entry) {
		if seen[e.key] {
			return
		}
		seen[e.key] = true
		if !e.del {
			live++
		}
	}
	s.mem.All(func(k string, v []byte) {
		consider(entry{key: k, value: v, del: v == nil})
	})
	for l := 0; l < numLevels; l++ {
		for _, t := range s.levels[l] {
			for _, e := range t.entries {
				consider(e)
			}
		}
	}
	return live
}

// ApproxMemory implements kvstore.MemoryReporter: the active memtable,
// the block cache, and per-table metadata (indexes and bloom filters).
func (s *Store) ApproxMemory() int64 {
	mem := s.memBytes + s.blockCache.Used()
	for l := range s.levels {
		for _, t := range s.levels[l] {
			mem += int64(len(t.filter.bits)*8) + int64(len(t.blockOf))*4
		}
	}
	return mem
}

// Flushes and Compactions expose background activity counts.
func (s *Store) Flushes() int64     { return s.flushes }
func (s *Store) Compactions() int64 { return s.compactions }

// LevelTableCounts returns the number of tables per level.
func (s *Store) LevelTableCounts() []int {
	out := make([]int, numLevels)
	for l := range s.levels {
		out[l] = len(s.levels[l])
	}
	return out
}

// DrainBackground implements kvstore.Backgrounder.
func (s *Store) DrainBackground() []kvstore.BackgroundTask {
	out := s.bg
	s.bg = nil
	return out
}

// memtableCost charges a skiplist traversal.
func (s *Store) memtableCost(write bool) workload.Cost {
	steps := s.mem.LastSearchSteps()
	c := workload.Compute(100 + 30*float64(steps))
	c.Add(workload.MemRead(workload.L2, 3))
	c.Add(workload.MemRead(workload.L3, int64(steps)))
	if write {
		c.Add(workload.MemWrite(workload.L3, 2))
	}
	return c
}

// blockID names a data block in the block cache.
type blockID struct {
	sst   int64
	block int32
}

// hash keys the block cache's index.
func (b blockID) hash() uint64 {
	return kvstore.HashUint64(uint64(b.sst)<<32 ^ uint64(uint32(b.block)))
}

// Residency tags: memtable records, table records and cached blocks are
// distinct lines in the LLC model.
const (
	tagMemtable kvstore.Tag = iota
	tagTable
	tagBlock
)

// touchBlock charges a block access: cache hit costs memory reads (with
// CPU-cache residency), a miss costs a device read plus insert+decode.
func (s *Store) touchBlock(t *sstable, block int32, cost *workload.Cost, ssdReads *int) {
	if s.blockCache.Touch(blockID{t.id, block}, blockBytes) {
		cost.Add(s.res.TouchRecord(tagBlock, t.blockNames[block], blockBytes/8, false))
		return
	}
	*ssdReads++
	// Fill: the freshly read block is written into cache memory and
	// decoded (checksum + restart-point parse).
	cost.Add(workload.WriteBytes(workload.DRAM, blockBytes))
	cost.Add(workload.Compute(float64(blockBytes) / 16))
}

// Read implements kvstore.Store.
func (s *Store) Read(key string) kvstore.Result {
	var cost workload.Cost
	ssdReads := 0
	cost.Add(workload.Compute(200))

	// 1. Active memtable.
	if v, ok := s.mem.Get(key); ok {
		cost.Add(s.memtableCost(false))
		if v == nil {
			return kvstore.Result{Found: false, Cost: cost}
		}
		cost.Add(s.res.TouchRecord(tagMemtable, key, int64(len(v)), false))
		return kvstore.Result{Found: true, Value: v, Cost: cost}
	}
	cost.Add(s.memtableCost(false))

	// 2. SSTables, newest first: L0 in order, then deeper levels.
	for l := 0; l < numLevels; l++ {
		tables := s.levelCandidates(l, key, &cost)
		for _, t := range tables {
			// Bloom probe: hot filter bits live in L2.
			cost.Add(workload.Compute(120))
			cost.Add(workload.MemRead(workload.L2, 2))
			if !t.mayContain(key) {
				continue
			}
			// Index block binary search.
			cost.Add(workload.Compute(60 * float64(log2(len(t.entries)+1))))
			cost.Add(workload.MemRead(workload.L3, 2))
			e, block, ok := t.get(key)
			if block >= 0 {
				s.touchBlock(t, block, &cost, &ssdReads)
				// Scanning within the block for the key.
				cost.Add(workload.Compute(float64(blockBytes) / 64))
			}
			if ok {
				if e.del {
					return kvstore.Result{Found: false, Cost: cost, SSDReads: ssdReads}
				}
				cost.Add(s.res.TouchRecord(tagTable, key, int64(len(e.value)), false))
				return kvstore.Result{Found: true, Value: e.value, Cost: cost, SSDReads: ssdReads}
			}
			// Bloom false positive or key absent in the candidate block.
		}
	}
	return kvstore.Result{Found: false, Cost: cost, SSDReads: ssdReads}
}

// levelCandidates returns the tables of level l that may hold key, charging
// the metadata search.
func (s *Store) levelCandidates(l int, key string, cost *workload.Cost) []*sstable {
	tables := s.levels[l]
	if len(tables) == 0 {
		return nil
	}
	if l == 0 {
		// L0 overlaps: every table is a candidate, newest first.
		return tables
	}
	// Deeper levels are sorted and disjoint: binary search the ranges.
	cost.Add(workload.Compute(40))
	cost.Add(workload.MemRead(workload.L2, 1))
	i := sort.Search(len(tables), func(i int) bool { return tables[i].maxKey >= key })
	if i < len(tables) && tables[i].minKey <= key {
		return tables[i : i+1]
	}
	return nil
}

// Update implements kvstore.Store: WAL append + memtable insert, both
// asynchronous with respect to the device (group commit).
func (s *Store) Update(key string, value []byte) kvstore.Result {
	return s.write(key, value, false)
}

// Insert implements kvstore.Store.
func (s *Store) Insert(key string, value []byte) kvstore.Result {
	return s.write(key, value, false)
}

// Delete writes a tombstone.
func (s *Store) Delete(key string) kvstore.Result {
	return s.write(key, nil, true)
}

func (s *Store) write(key string, value []byte, del bool) kvstore.Result {
	var cost workload.Cost
	recBytes := int64(len(key) + len(value) + 16)
	// WAL append: sequential buffer writes, flushed by group commit.
	s.walBytes += recBytes
	cost.Add(workload.Compute(150))
	cost.Add(workload.WriteBytes(workload.L2, recBytes))

	var stored []byte
	if !del {
		stored = value
		if stored == nil {
			stored = []byte{}
		}
	}
	wasNew := s.mem.Set(key, stored)
	if del {
		s.mem.Set(key, nil)
	}
	cost.Add(s.memtableCost(true))
	cost.Add(s.res.TouchRecord(tagMemtable, key, recBytes, true))
	if wasNew {
		s.memBytes += recBytes
	}

	if s.memBytes >= s.cfg.MemtableBytes {
		s.flush()
	}
	return kvstore.Result{Found: true, Cost: cost}
}

// flush turns the active memtable into an L0 table and queues the device
// work as a background task; it may trigger compaction.
func (s *Store) flush() {
	if s.mem.Len() == 0 {
		return
	}
	entries := make([]entry, 0, s.mem.Len())
	s.mem.All(func(k string, v []byte) {
		entries = append(entries, entry{key: k, value: v, del: v == nil})
	})
	s.nextSSTID++
	t := buildSSTable(s.nextSSTID, 0, entries, blockBytes, bloomBitsPerKey)
	// Newest first in L0.
	s.levels[0] = append([]*sstable{t}, s.levels[0]...)
	s.flushes++

	// Background cost: stream the memtable and write every block + WAL
	// truncation.
	var c workload.Cost
	c.Add(workload.ReadBytes(workload.DRAM, t.size))
	c.Add(workload.Compute(float64(t.size) / 8))
	s.bg = append(s.bg, kvstore.BackgroundTask{
		Desc:      fmt.Sprintf("flush sst%d (%d bytes)", t.id, t.size),
		Cost:      c,
		SSDWrites: t.numBlocks,
	})

	s.memSeq++
	s.mem.Reset(s.cfg.Seed + s.memSeq)
	s.memBytes = 0
	s.walBytes = 0

	if len(s.levels[0]) >= l0CompactionTrigger {
		s.compact(0)
	}
	s.maybeCompactDeeper()
}

// levelBudget returns the size budget of level l (l >= 1).
func (s *Store) levelBudget(l int) int64 {
	b := s.cfg.LevelBaseBytes
	for i := 1; i < l; i++ {
		b *= 10
	}
	return b
}

// maybeCompactDeeper compacts any level exceeding its budget.
func (s *Store) maybeCompactDeeper() {
	for l := 1; l < numLevels-1; l++ {
		var size int64
		for _, t := range s.levels[l] {
			size += t.size
		}
		if size > s.levelBudget(l) {
			s.compact(l)
		}
	}
}

// compact merges level l into level l+1.
func (s *Store) compact(l int) {
	if l >= numLevels-1 {
		return
	}
	var sources []*sstable
	if l == 0 {
		sources = s.levels[0]
		s.levels[0] = nil
	} else {
		// Pick the first (smallest-key) table, RocksDB round-robin style.
		if len(s.levels[l]) == 0 {
			return
		}
		sources = []*sstable{s.levels[l][0]} // copy: never alias level metadata
		s.levels[l] = s.levels[l][1:]
	}
	lo, hi := sources[0].minKey, sources[0].maxKey
	for _, t := range sources {
		if t.minKey < lo {
			lo = t.minKey
		}
		if t.maxKey > hi {
			hi = t.maxKey
		}
	}
	// Pull in the overlapping tables of the next level.
	var overlapped []*sstable
	var keep []*sstable
	for _, t := range s.levels[l+1] {
		if t.overlaps(lo, hi) {
			overlapped = append(overlapped, t)
		} else {
			keep = append(keep, t)
		}
	}

	// Merge: sources are newer than the next level; within L0 the slice
	// is already newest-first.
	var inputs [][]entry
	var inBytes int64
	for _, t := range sources {
		inputs = append(inputs, t.entries)
		inBytes += t.size
	}
	for _, t := range overlapped {
		inputs = append(inputs, t.entries)
		inBytes += t.size
	}
	bottommost := len(s.levels[l+2:]) == 0 || allEmpty(s.levels[l+2:])
	merged := mergeEntries(inputs, !bottommost)
	if debugCompact != nil {
		debugCompact(l, sources, overlapped, bottommost)
	}

	// Split into output tables, each holding a copy of its run of merged
	// entries, sized exactly.
	var outTables []*sstable
	start := 0
	var curBytes int64
	var outBytes int64
	flushOut := func(end int) {
		if end == start {
			return
		}
		s.nextSSTID++
		nt := buildSSTable(s.nextSSTID, l+1, slices.Clone(merged[start:end]), blockBytes, bloomBitsPerKey)
		outTables = append(outTables, nt)
		outBytes += nt.size
		start, curBytes = end, 0
	}
	for i, e := range merged {
		curBytes += entryBytes(e)
		if curBytes >= s.cfg.MaxTableBytes {
			flushOut(i + 1)
		}
	}
	flushOut(len(merged))

	next := append(keep, outTables...)
	sort.Slice(next, func(i, j int) bool { return next[i].minKey < next[j].minKey })
	s.levels[l+1] = next
	s.compactions++

	// Invalidate cached blocks of consumed tables. (Do not append
	// overlapped onto sources: sources may alias s.levels[l]'s backing
	// array and appending would clobber live level metadata.)
	invalidate := func(t *sstable) {
		for b := int32(0); b < int32(t.numBlocks); b++ {
			s.blockCache.Remove(blockID{t.id, b})
		}
	}
	for _, t := range sources {
		invalidate(t)
	}
	for _, t := range overlapped {
		invalidate(t)
	}

	// Background device + CPU work of the merge.
	var c workload.Cost
	c.Add(workload.ReadBytes(workload.DRAM, inBytes))
	c.Add(workload.WriteBytes(workload.DRAM, outBytes))
	c.Add(workload.Compute(float64(inBytes+outBytes) / 8))
	s.bg = append(s.bg, kvstore.BackgroundTask{
		Desc:      fmt.Sprintf("compact L%d->L%d (%d -> %d bytes)", l, l+1, inBytes, outBytes),
		Cost:      c,
		SSDReads:  int(inBytes / blockBytes),
		SSDWrites: int(outBytes / blockBytes),
	})
}

// debugCompact, when non-nil, observes compactions (tests only).
var debugCompact func(l int, sources, overlapped []*sstable, bottommost bool)

func allEmpty(levels [][]*sstable) bool {
	for _, l := range levels {
		if len(l) > 0 {
			return false
		}
	}
	return true
}

// Scan implements kvstore.Store: a merging iterator over the memtable and
// every overlapping table.
func (s *Store) Scan(start string, count int) kvstore.Result {
	var cost workload.Cost
	ssdReads := 0
	cost.Add(workload.Compute(400))

	// Gather per-source runs from start. Fetch more than count per source
	// so that duplicate keys and dropped tombstones cannot starve the
	// merged result below the requested length.
	fetch := count + count/4 + 8
	var sources [][]entry
	var memRun []entry
	s.mem.Seek(start, fetch, func(k string, v []byte) bool {
		memRun = append(memRun, entry{key: k, value: v, del: v == nil})
		return true
	})
	cost.Add(s.memtableCost(false))
	sources = append(sources, memRun)

	for l := 0; l < numLevels; l++ {
		for _, t := range s.levels[l] {
			if len(t.entries) == 0 || t.maxKey < start {
				continue
			}
			i := t.seek(start)
			end := i + fetch
			if end > len(t.entries) {
				end = len(t.entries)
			}
			if i >= end {
				continue
			}
			run := t.entries[i:end]
			sources = append(sources, run)
			// Charge the blocks the run touches.
			lastBlock := int32(-1)
			for j := i; j < end; j++ {
				if t.blockOf[j] != lastBlock {
					lastBlock = t.blockOf[j]
					s.touchBlock(t, lastBlock, &cost, &ssdReads)
				}
			}
		}
	}

	merged := mergeEntries(sources, false)
	visited := 0
	for _, e := range merged {
		if visited >= count {
			break
		}
		cost.Add(s.res.TouchRecord(tagTable, e.key, int64(len(e.value)), false))
		cost.Add(workload.Compute(float64(len(e.value)) / 16))
		visited++
	}
	return kvstore.Result{Found: true, ScanCount: visited, Cost: cost, SSDReads: ssdReads}
}

// log2 returns the integer binary logarithm (0 for n <= 1).
func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

var (
	_ kvstore.Store        = (*Store)(nil)
	_ kvstore.Backgrounder = (*Store)(nil)
)
