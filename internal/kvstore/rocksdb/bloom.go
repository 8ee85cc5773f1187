package rocksdb

// bloom is the per-SSTable bloom filter: standard double hashing with a
// configurable bits-per-key budget, matching RocksDB's full filter blocks.
type bloom struct {
	bits  []uint64
	nbits uint64
	k     int
}

// newBloom returns an empty filter sized for keys keys at bitsPerKey
// bits per key; add fills it.
func newBloom(keys, bitsPerKey int) *bloom {
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	n := uint64(keys*bitsPerKey + 64)
	return &bloom{
		bits:  make([]uint64, (n+63)/64),
		nbits: n,
		// k = bitsPerKey * ln2, clamped like RocksDB.
		k: max(1, min(30, int(float64(bitsPerKey)*0.69))),
	}
}

func bloomHash(key string) (h1, h2 uint64) {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	h1 = h
	h2 = h>>33 | h<<31
	if h2 == 0 {
		h2 = 0x9e3779b97f4a7c15
	}
	return
}

func (b *bloom) add(key string) {
	h1, h2 := bloomHash(key)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % b.nbits
		b.bits[pos/64] |= 1 << (pos % 64)
	}
}

// mayContain reports whether the key might be in the set. False means
// definitely absent.
func (b *bloom) mayContain(key string) bool {
	h1, h2 := bloomHash(key)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % b.nbits
		if b.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
