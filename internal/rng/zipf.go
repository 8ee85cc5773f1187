package rng

import (
	"math"
	"sync"
)

// Zipf draws integers in [0, n) with a Zipfian frequency distribution,
// using the rejection-inversion method of Gray et al. as popularized by the
// YCSB reference implementation. Item 0 is the most popular.
//
// theta is the skew parameter; YCSB's default of 0.99 concentrates roughly
// 85% of accesses on 10% of the keys for large n.
type Zipf struct {
	src   *Source
	n     int64
	theta float64

	alpha, zetan, eta, zeta2 float64
}

// NewZipf constructs a Zipfian generator over [0, n) with skew theta in
// (0, 1). It panics on invalid arguments.
func NewZipf(src *Source, n int64, theta float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	if theta <= 0 || theta >= 1 {
		panic("rng: Zipf theta must be in (0, 1)")
	}
	z := &Zipf{src: src, n: n, theta: theta}
	z.zetan = zetaStatic(n, theta)
	z.zeta2 = zetaStatic(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// zetaStatic computes the generalized harmonic number sum_{i=1..n} 1/i^theta
// by sequential summation. Results are memoised for the life of the
// process, and for theta = 0.99 the sum resumes from the nearest
// checkpoint at or below n (zeta_table.go). A checkpoint is the exact
// float64 partial sum of the same loop, so resuming repeats the same
// additions and the result is bit-identical to summing from 1.
func zetaStatic(n int64, theta float64) float64 {
	key := zetaKey{n, theta}
	zetaMu.Lock()
	sum, ok := zetaMemo[key]
	zetaMu.Unlock()
	if ok {
		return sum
	}
	i := int64(1)
	if theta == zetaCheckpointTheta {
		if c := min(n>>zetaCheckpointShift, int64(len(zetaCheckpoints))); c > 0 {
			sum, i = zetaCheckpoints[c-1], c<<zetaCheckpointShift+1
		}
	}
	sum = zetaSum(sum, i, n, theta)
	zetaMu.Lock()
	zetaMemo[key] = sum
	zetaMu.Unlock()
	return sum
}

// zetaSum adds 1/i^theta for i = from..to onto sum, in order.
func zetaSum(sum float64, from, to int64, theta float64) float64 {
	for i := from; i <= to; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

type zetaKey struct {
	n     int64
	theta float64
}

var (
	zetaMu   sync.Mutex
	zetaMemo = map[zetaKey]float64{}
)

// Checkpoints of the theta = 0.99 sum: zetaCheckpoints[k] is the sum of
// the first (k+1)<<zetaCheckpointShift terms.
const (
	zetaCheckpointTheta = 0.99
	zetaCheckpointShift = 16
	zetaCheckpointCount = 32 // up to 2^21 terms
)

// N returns the size of the item space.
func (z *Zipf) N() int64 { return z.n }

// Next returns the next Zipf-distributed value in [0, n).
func (z *Zipf) Next() int64 {
	u := z.src.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	v := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// ScrambledZipf spreads Zipfian popularity across the whole key space by
// hashing the rank, matching YCSB's ScrambledZipfianGenerator. Without
// scrambling, hot keys would be the lexicographically first ones, which
// makes store-level caching unrealistically effective.
type ScrambledZipf struct {
	z *Zipf
	n int64
}

// NewScrambledZipf constructs a scrambled Zipfian generator over [0, n).
func NewScrambledZipf(src *Source, n int64, theta float64) *ScrambledZipf {
	return &ScrambledZipf{z: NewZipf(src, n, theta), n: n}
}

// Next returns the next scrambled Zipf value in [0, n).
func (s *ScrambledZipf) Next() int64 {
	v := s.z.Next()
	return int64(fnv64(uint64(v)) % uint64(s.n))
}

// fnv64 is the FNV-1a hash of the 8 bytes of v, used for rank scrambling.
func fnv64(v uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// Latest favours recently inserted items: item (max-1) is the most popular.
// It mirrors YCSB's SkewedLatestGenerator and is used by workload D.
type Latest struct {
	z   *Zipf
	max func() int64
}

// NewLatest constructs a latest-skewed generator. max reports the current
// number of inserted items and may grow over time.
func NewLatest(src *Source, initial int64, theta float64, max func() int64) *Latest {
	return &Latest{z: NewZipf(src, initial, theta), max: max}
}

// Next returns an item index skewed toward the most recently inserted.
func (l *Latest) Next() int64 {
	n := l.max()
	if n <= 0 {
		return 0
	}
	v := l.z.Next() % n
	return n - 1 - v
}
