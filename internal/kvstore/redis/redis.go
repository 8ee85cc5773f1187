// Package redis reproduces the Redis service of the paper's evaluation:
// an in-memory key-value store around an incrementally-rehashed hash
// table, with a sorted index for range scans (the YCSB Redis binding
// maintains a ZSET index for exactly this purpose). Redis serves all
// queries from a single worker thread, which the paper identifies as the
// reason its latency under Holmes retains slight degradation (§6.2).
package redis

import (
	"slices"

	"github.com/holmes-colocation/holmes/internal/kvstore"
	"github.com/holmes-colocation/holmes/internal/workload"
)

// Config parameterizes the store.
type Config struct {
	// Seed drives the scan index's skiplist tower heights.
	Seed uint64
	// LLCBytes sizes the CPU-cache residency model.
	LLCBytes int64
	// SaveEveryWrites triggers a background save (BGSAVE-style snapshot)
	// after this many write commands; 0 disables persistence. The save
	// is the kind of memory-intensive background management operation
	// §4.2 calls out: it streams the whole dataset.
	SaveEveryWrites int
}

// DefaultConfig returns the evaluation configuration (persistence
// matching a "save 60 10000"-style policy at the simulated request
// rates).
func DefaultConfig() Config {
	return Config{Seed: 1, LLCBytes: kvstore.DefaultLLCBytes, SaveEveryWrites: 50_000}
}

// Store is the Redis reproduction.
type Store struct {
	cfg   Config
	d     *dict
	index *kvstore.Skiplist // ZSET-style ordered key index for scans
	res   *kvstore.Residency
	mem   int64 // approximate resident bytes

	writesSinceSave int
	saves           int64
	bg              []kvstore.BackgroundTask
}

// New creates an empty store.
func New(cfg Config) *Store {
	if cfg.LLCBytes == 0 {
		cfg.LLCBytes = kvstore.DefaultLLCBytes
	}
	return &Store{
		cfg:   cfg,
		d:     newDict(),
		index: kvstore.NewSkiplist(cfg.Seed),
		res:   kvstore.NewResidency(cfg.LLCBytes),
	}
}

// Clone implements kvstore.Store.
func (s *Store) Clone() kvstore.Store {
	c := *s
	c.d = s.d.clone()
	c.index = s.index.Clone()
	c.res = s.res.Clone()
	c.bg = slices.Clone(s.bg)
	return &c
}

// Name implements kvstore.Store.
func (s *Store) Name() string { return "redis" }

// Len implements kvstore.Store.
func (s *Store) Len() int { return s.d.Len() }

// ApproxMemory returns the approximate resident set in bytes.
func (s *Store) ApproxMemory() int64 { return s.mem }

// Residency tags: a record's value and its dictEntry header are
// distinct lines in the LLC model.
const (
	tagValue kvstore.Tag = iota
	tagHeader
)

// entryHeaderBytes is the dictEntry struct footprint: key pointer, value
// pointer, next pointer, plus robj headers.
const entryHeaderBytes = 64

// baseCost charges the fixed command-processing path: parse the RESP
// request, hash the key, and walk the bucket chain. The table header and
// the first bucket word are hot (L2); chain entries are per-record data
// whose residency the LLC model decides.
func (s *Store) baseCost(key string, chainSteps, rehashed int) workload.Cost {
	c := workload.Compute(200 + 4*float64(len(key))) // parse + hash + dispatch
	c.Add(workload.MemRead(workload.L2, 2))          // dict header + bucket head
	for i := 0; i < chainSteps; i++ {
		c.Add(s.res.TouchRecord(tagHeader, key, entryHeaderBytes, false))
	}
	if rehashed > 0 {
		// Bucket migration: each moved entry is a read + two pointer
		// stores, typically cold.
		c.Add(workload.MemRead(workload.DRAM, int64(rehashed)))
		c.Add(workload.MemWrite(workload.DRAM, int64(rehashed)))
		c.Add(workload.Compute(60 * float64(rehashed)))
	}
	return c
}

// Read implements kvstore.Store.
func (s *Store) Read(key string) kvstore.Result {
	v, ok := s.d.Get(key)
	cost := s.baseCost(key, s.d.chainSteps, s.d.rehashedKeys)
	if ok {
		// Fetch the value and serialize the reply: value loads at its
		// residency level, reply stores into a fresh (cache-hot) buffer.
		cost.Add(s.res.TouchRecord(tagValue, key, int64(len(v))+entryHeaderBytes, false))
		cost.Add(workload.WriteBytes(workload.L2, int64(len(v))))
		cost.Add(workload.Compute(float64(len(v)) / 8))
	}
	return kvstore.Result{Found: ok, Value: v, Cost: cost}
}

// Update implements kvstore.Store. YCSB updates overwrite whole records;
// a missing key is inserted (matching the YCSB Redis binding's HSET).
func (s *Store) Update(key string, value []byte) kvstore.Result {
	isNew := s.d.Set(key, value)
	cost := s.baseCost(key, s.d.chainSteps, s.d.rehashedKeys)
	cost.Add(s.res.TouchRecord(tagValue, key, int64(len(value))+entryHeaderBytes, true))
	cost.Add(workload.Compute(float64(len(value)) / 8))
	if isNew {
		s.indexInsert(key, &cost)
		s.mem += int64(len(value)) + int64(len(key)) + entryHeaderBytes
	}
	s.writesSinceSave++
	if s.cfg.SaveEveryWrites > 0 && s.writesSinceSave >= s.cfg.SaveEveryWrites {
		s.backgroundSave()
	}
	return kvstore.Result{Found: true, Cost: cost}
}

// backgroundSave queues a BGSAVE-style snapshot: the (forked) saver
// streams the whole dataset from memory and writes the RDB file.
func (s *Store) backgroundSave() {
	s.writesSinceSave = 0
	s.saves++
	var c workload.Cost
	c.Add(workload.ReadBytes(workload.DRAM, s.mem))
	c.Add(workload.Compute(float64(s.mem) / 8)) // serialize + CRC
	s.bg = append(s.bg, kvstore.BackgroundTask{
		Desc:      "bgsave",
		Cost:      c,
		SSDWrites: int(s.mem/(128<<10)) + 1, // buffered rdb writes
	})
}

// Saves returns the number of background saves triggered.
func (s *Store) Saves() int64 { return s.saves }

// DrainBackground implements kvstore.Backgrounder.
func (s *Store) DrainBackground() []kvstore.BackgroundTask {
	out := s.bg
	s.bg = nil
	return out
}

// Insert implements kvstore.Store.
func (s *Store) Insert(key string, value []byte) kvstore.Result {
	return s.Update(key, value)
}

// indexInsert maintains the ZSET-style scan index.
func (s *Store) indexInsert(key string, cost *workload.Cost) {
	s.index.Set(key, nil)
	steps := s.index.LastSearchSteps()
	// Skiplist tower nodes: upper levels are hot, bottom-level hops
	// touch per-node lines.
	cost.Add(workload.MemRead(workload.L2, 4))
	cost.Add(workload.MemRead(workload.L3, int64(steps)))
	cost.Add(workload.Compute(40 * float64(steps+1)))
}

// Scan implements kvstore.Store: a ZRANGEBYLEX-style index walk followed
// by fetching each record.
func (s *Store) Scan(start string, count int) kvstore.Result {
	var cost workload.Cost
	cost.Add(workload.Compute(300))
	cost.Add(workload.MemRead(workload.L2, 4))
	visited := 0
	s.index.Seek(start, count, func(k string, _ []byte) bool {
		v, ok := s.d.Get(k)
		if ok {
			cost.Add(s.res.TouchRecord(tagValue, k, int64(len(v))+entryHeaderBytes, false))
			cost.Add(workload.WriteBytes(workload.L2, int64(len(v))))
			cost.Add(workload.Compute(float64(len(v)) / 8))
		}
		visited++
		return true
	})
	cost.Add(workload.MemRead(workload.L3, int64(s.index.LastSearchSteps())))
	return kvstore.Result{Found: true, ScanCount: visited, Cost: cost}
}

// Delete removes a key (not exercised by YCSB A/B/E but part of a usable
// store).
func (s *Store) Delete(key string) kvstore.Result {
	ok := s.d.Delete(key)
	cost := s.baseCost(key, s.d.chainSteps, 0)
	if ok {
		s.index.Delete(key)
		s.res.Invalidate(tagValue, key)
	}
	return kvstore.Result{Found: ok, Cost: cost}
}

var (
	_ kvstore.Store          = (*Store)(nil)
	_ kvstore.Backgrounder   = (*Store)(nil)
	_ kvstore.MemoryReporter = (*Store)(nil)
)
