// Package ycsb reproduces the Yahoo! Cloud Serving Benchmark client the
// paper uses to drive its latency-critical services: the standard core
// workloads A-F with their operation mixes and request distributions, a
// deterministic record/value generator, and the bursty traffic process of
// §6.1 (bursts of 60-90 s separated by 5-10 s gaps, both Poisson).
package ycsb

import (
	"fmt"
	"sync"

	"github.com/holmes-colocation/holmes/internal/rng"
)

// OpType is a YCSB operation kind.
type OpType int

// Operation kinds of the core workloads.
const (
	OpRead OpType = iota
	OpUpdate
	OpInsert
	OpScan
	OpReadModifyWrite
)

// String returns the operation name.
func (o OpType) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpUpdate:
		return "UPDATE"
	case OpInsert:
		return "INSERT"
	case OpScan:
		return "SCAN"
	case OpReadModifyWrite:
		return "RMW"
	}
	return fmt.Sprintf("OpType(%d)", int(o))
}

// Workload is a YCSB core workload definition.
type Workload struct {
	Name string
	// Operation mix; proportions sum to 1.
	ReadProp, UpdateProp, InsertProp, ScanProp, RMWProp float64
	// Distribution selects keys: "zipfian", "uniform", or "latest".
	Distribution string
	// MaxScanLength bounds scan lengths (uniformly chosen in [1, max]).
	MaxScanLength int
}

// The standard core workloads. The paper evaluates A (update heavy,
// 50/50), B (read heavy, 95/5) and E (scan heavy, 95/5); C, D and F are
// included for completeness.
var (
	WorkloadA = Workload{Name: "workload-a", ReadProp: 0.5, UpdateProp: 0.5, Distribution: "zipfian"}
	WorkloadB = Workload{Name: "workload-b", ReadProp: 0.95, UpdateProp: 0.05, Distribution: "zipfian"}
	WorkloadC = Workload{Name: "workload-c", ReadProp: 1.0, Distribution: "zipfian"}
	WorkloadD = Workload{Name: "workload-d", ReadProp: 0.95, InsertProp: 0.05, Distribution: "latest"}
	WorkloadE = Workload{Name: "workload-e", ScanProp: 0.95, InsertProp: 0.05, Distribution: "zipfian", MaxScanLength: 100}
	WorkloadF = Workload{Name: "workload-f", ReadProp: 0.5, RMWProp: 0.5, Distribution: "zipfian"}
)

// ByName returns a core workload by its short letter ("a".."f").
func ByName(name string) (Workload, error) {
	switch name {
	case "a":
		return WorkloadA, nil
	case "b":
		return WorkloadB, nil
	case "c":
		return WorkloadC, nil
	case "d":
		return WorkloadD, nil
	case "e":
		return WorkloadE, nil
	case "f":
		return WorkloadF, nil
	}
	return Workload{}, fmt.Errorf("ycsb: unknown workload %q", name)
}

// Op is one generated request.
type Op struct {
	Type    OpType
	Key     string
	Value   []byte // for writes
	ScanLen int    // for scans
}

// Config parameterizes a Generator.
type Config struct {
	Workload    Workload
	RecordCount int64
	FieldCount  int
	FieldLength int
	ZipfTheta   float64
	Seed        uint64
}

// DefaultConfig matches YCSB defaults scaled to the simulation: 1 KB
// records (10 fields x 100 bytes) over 100k records.
func DefaultConfig(w Workload) Config {
	return Config{
		Workload:    w,
		RecordCount: 100_000,
		FieldCount:  10,
		FieldLength: 100,
		ZipfTheta:   0.99,
		Seed:        1,
	}
}

// Generator produces the operation stream of one YCSB client.
type Generator struct {
	cfg      Config
	src      *rng.Source
	zipf     *rng.ScrambledZipf
	latest   *rng.Latest
	inserted int64
	pool     []byte // the shared letter pool; Value windows into it
	seedMix  uint64 // cfg.Seed hashed once; Value adds the record index
}

// NewGenerator builds a generator; RecordCount records are assumed loaded
// (use LoadOps to produce the load phase). It panics when a record
// (FieldCount*FieldLength bytes) is larger than a pool window allows.
func NewGenerator(cfg Config) *Generator {
	if cfg.RecordCount <= 0 {
		panic("ycsb: RecordCount must be positive")
	}
	if cfg.ZipfTheta == 0 {
		cfg.ZipfTheta = 0.99
	}
	if cfg.FieldCount == 0 {
		cfg.FieldCount = 10
	}
	if cfg.FieldLength == 0 {
		cfg.FieldLength = 100
	}
	if n := cfg.FieldCount * cfg.FieldLength; n < 0 || n > maxValueLen {
		panic(fmt.Sprintf("ycsb: record size %d bytes outside [0, %d]", n, maxValueLen))
	}
	g := &Generator{
		cfg: cfg, src: rng.New(cfg.Seed), inserted: cfg.RecordCount,
		pool: letterPool(), seedMix: rng.DeriveSeed(cfg.Seed, "ycsb-values"),
	}
	g.zipf = rng.NewScrambledZipf(g.src.Split(), cfg.RecordCount, cfg.ZipfTheta)
	g.latest = rng.NewLatest(g.src.Split(), cfg.RecordCount, cfg.ZipfTheta,
		func() int64 { return g.inserted })
	return g
}

// Key formats record index i as a YCSB key: "user" and i zero-padded to
// twelve digits. It runs on every request, so the common range is
// formatted by hand.
func Key(i int64) string {
	if i < 0 || i >= 1e12 {
		return fmt.Sprintf("user%012d", i)
	}
	b := [16]byte{'u', 's', 'e', 'r'}
	for j := len(b) - 1; j >= 4; j-- {
		b[j] = '0' + byte(i%10)
		i /= 10
	}
	return string(b[:])
}

// RecordCount returns the current number of records (grows with inserts).
func (g *Generator) RecordCount() int64 { return g.inserted }

// Record values are windows of one shared, read-only pool of letters.
// A window starts at one of valueOffsets offsets and holds at most
// maxValueLen bytes, so the pool is their sum: 1 MiB.
const (
	valueOffsets = 1 << 19 // a power of two, for valueOffset
	maxValueLen  = 1 << 19 // largest FieldCount*FieldLength accepted
)

// letterPool builds the pool on first use, once per process: building
// it at package init would charge every process start, including those
// that never generate a record.
var letterPool = sync.OnceValue(buildLetterPool)

func buildLetterPool() []byte {
	pool := make([]byte, valueOffsets+maxValueLen)
	seed := uint64(0x9e3779b97f4a7c15)
	for j := 0; j < len(pool); j += 8 {
		seed = seed*6364136223846793005 + 1442695040888963407
		w := seed
		for k := j; k < j+8; k++ {
			pool[k] = 'a' + byte(w%26)
			w >>= 8
		}
	}
	return pool
}

// Value returns the deterministic record payload for key index i: a
// window of the shared pool, at an offset hashed from (Seed, i), with
// capacity capped at its length so an append copies rather than writing
// into the pool. The bytes are shared and must never be written; stores
// keep the slice and account only its length.
func (g *Generator) Value(i int64) []byte {
	n := g.cfg.FieldCount * g.cfg.FieldLength
	off := valueOffset(g.seedMix + uint64(i))
	return g.pool[off : off+n : off+n]
}

// valueOffset is a bijection on 19-bit integers (odd multiplies and
// xor-shifts, each invertible modulo valueOffsets), so any
// valueOffsets consecutive record indices get distinct windows.
func valueOffset(x uint64) int {
	const mask = valueOffsets - 1
	x = x * 0x9e3779b97f4a7c15 & mask
	x ^= x >> 10
	x = x * 0xbf58476d1ce4e5b9 & mask
	x ^= x >> 9
	return int(x)
}

// LoadOps invokes fn for every initial record, in insertion order.
func (g *Generator) LoadOps(fn func(key string, value []byte)) {
	for i := int64(0); i < g.cfg.RecordCount; i++ {
		fn(Key(i), g.Value(i))
	}
}

// nextKeyIndex picks a record according to the workload distribution.
func (g *Generator) nextKeyIndex() int64 {
	switch g.cfg.Workload.Distribution {
	case "uniform":
		return g.src.Int63n(g.inserted)
	case "latest":
		return g.latest.Next()
	default: // zipfian
		v := g.zipf.Next()
		if v >= g.inserted {
			v = g.inserted - 1
		}
		return v
	}
}

// Next produces the next operation.
func (g *Generator) Next() Op {
	w := g.cfg.Workload
	p := g.src.Float64()
	switch {
	case p < w.ReadProp:
		return Op{Type: OpRead, Key: Key(g.nextKeyIndex())}
	case p < w.ReadProp+w.UpdateProp:
		i := g.nextKeyIndex()
		return Op{Type: OpUpdate, Key: Key(i), Value: g.Value(i + 7)}
	case p < w.ReadProp+w.UpdateProp+w.InsertProp:
		i := g.inserted
		g.inserted++
		return Op{Type: OpInsert, Key: Key(i), Value: g.Value(i)}
	case p < w.ReadProp+w.UpdateProp+w.InsertProp+w.ScanProp:
		maxLen := w.MaxScanLength
		if maxLen <= 0 {
			maxLen = 100
		}
		return Op{
			Type:    OpScan,
			Key:     Key(g.nextKeyIndex()),
			ScanLen: 1 + g.src.Intn(maxLen),
		}
	default:
		i := g.nextKeyIndex()
		return Op{Type: OpReadModifyWrite, Key: Key(i), Value: g.Value(i + 13)}
	}
}

// Traffic is the bursty query process of §6.1: serving bursts of
// [BurstMinNs, BurstMaxNs] separated by idle gaps of [GapMinNs, GapMaxNs],
// with exponential inter-arrival times at RPS during bursts. Durations are
// drawn uniformly (the paper's Poisson arrival of phase boundaries yields
// exponential phase positions; uniform-in-range matches its stated 60-90 s
// and 5-10 s windows).
type Traffic struct {
	BurstMinNs, BurstMaxNs int64
	GapMinNs, GapMaxNs     int64
	RPS                    float64
	src                    *rng.Source
}

// NewTraffic builds a traffic process.
func NewTraffic(burstMinNs, burstMaxNs, gapMinNs, gapMaxNs int64, rps float64, seed uint64) *Traffic {
	if burstMinNs <= 0 || burstMaxNs < burstMinNs || gapMinNs < 0 || gapMaxNs < gapMinNs || rps <= 0 {
		panic("ycsb: invalid traffic parameters")
	}
	return &Traffic{
		BurstMinNs: burstMinNs, BurstMaxNs: burstMaxNs,
		GapMinNs: gapMinNs, GapMaxNs: gapMaxNs,
		RPS: rps, src: rng.New(seed),
	}
}

// NextBurst returns the next burst duration.
func (t *Traffic) NextBurst() int64 {
	return t.BurstMinNs + t.src.Int63n(t.BurstMaxNs-t.BurstMinNs+1)
}

// NextGap returns the next gap duration.
func (t *Traffic) NextGap() int64 {
	if t.GapMaxNs == t.GapMinNs {
		return t.GapMinNs
	}
	return t.GapMinNs + t.src.Int63n(t.GapMaxNs-t.GapMinNs+1)
}

// NextInterArrival returns the next exponential inter-arrival time during
// a burst, in nanoseconds.
func (t *Traffic) NextInterArrival() int64 {
	d := t.src.ExpFloat64() / t.RPS * 1e9
	if d < 1 {
		d = 1
	}
	return int64(d)
}
