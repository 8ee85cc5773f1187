package redis

// dict is a reproduction of the Redis hash table: chained buckets with
// power-of-two sizing and *incremental rehash* — when the load factor
// exceeds 1, a second table of twice the size is allocated and every
// subsequent operation migrates one bucket, bounding per-operation work.
//
// The structure exposes step counters (chain nodes visited, buckets
// migrated) that the store's cost model converts into memory accesses.
type dict struct {
	tables    [2][]*dictEntry
	used      [2]int
	rehashIdx int // -1 when not rehashing; else next bucket of table 0 to move

	// Step counters for the last operation.
	chainSteps   int
	rehashedKeys int
}

type dictEntry struct {
	key   string
	value []byte
	next  *dictEntry
}

const dictInitialSize = 16

func newDict() *dict {
	return &dict{
		tables:    [2][]*dictEntry{make([]*dictEntry, dictInitialSize), nil},
		rehashIdx: -1,
	}
}

// clone returns an independent copy of the table, mid-rehash included.
// Each bucket's chain keeps its order, so lookups walk the same steps.
// The copied entries share one allocation.
func (d *dict) clone() *dict {
	c := *d
	entries := make([]dictEntry, d.Len())
	for t, table := range d.tables {
		if table == nil {
			continue
		}
		c.tables[t] = make([]*dictEntry, len(table))
		for i, e := range table {
			link := &c.tables[t][i]
			for ; e != nil; e = e.next {
				n := &entries[0]
				entries = entries[1:]
				n.key, n.value = e.key, e.value
				*link = n
				link = &n.next
			}
		}
	}
	return &c
}

// Len returns the number of stored keys.
func (d *dict) Len() int { return d.used[0] + d.used[1] }

func hashString(s string) uint64 {
	// FNV-1a.
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

func (d *dict) rehashing() bool { return d.rehashIdx >= 0 }

// rehashStep migrates one non-empty bucket from table 0 to table 1.
func (d *dict) rehashStep() {
	if !d.rehashing() {
		return
	}
	d.rehashedKeys = 0
	t0 := d.tables[0]
	// Skip up to a bounded number of empty buckets per step (Redis uses
	// n*10) so rehash always terminates.
	empties := 0
	for d.rehashIdx < len(t0) && t0[d.rehashIdx] == nil {
		d.rehashIdx++
		empties++
		if empties >= 10 {
			return
		}
	}
	if d.rehashIdx >= len(t0) {
		d.finishRehash()
		return
	}
	e := t0[d.rehashIdx]
	t0[d.rehashIdx] = nil
	for e != nil {
		next := e.next
		idx := hashString(e.key) & uint64(len(d.tables[1])-1)
		e.next = d.tables[1][idx]
		d.tables[1][idx] = e
		d.used[0]--
		d.used[1]++
		d.rehashedKeys++
		e = next
	}
	d.rehashIdx++
	if d.rehashIdx >= len(t0) {
		d.finishRehash()
	}
}

func (d *dict) finishRehash() {
	d.tables[0] = d.tables[1]
	d.tables[1] = nil
	d.used[0] += d.used[1]
	d.used[1] = 0
	d.rehashIdx = -1
}

// maybeGrow starts an incremental rehash when load factor exceeds 1.
func (d *dict) maybeGrow() {
	if d.rehashing() {
		return
	}
	if d.used[0] >= len(d.tables[0]) {
		d.tables[1] = make([]*dictEntry, len(d.tables[0])*2)
		d.rehashIdx = 0
	}
}

// find returns the entry for key and counts chain steps.
func (d *dict) find(key string) *dictEntry {
	d.chainSteps = 0
	h := hashString(key)
	for t := 0; t < 2; t++ {
		table := d.tables[t]
		if table == nil {
			break
		}
		idx := h & uint64(len(table)-1)
		for e := table[idx]; e != nil; e = e.next {
			d.chainSteps++
			if e.key == key {
				return e
			}
		}
		if !d.rehashing() {
			break
		}
	}
	return nil
}

// Get looks up key, performing one rehash step first (Redis semantics).
func (d *dict) Get(key string) ([]byte, bool) {
	if d.rehashing() {
		d.rehashStep()
	}
	e := d.find(key)
	if e == nil {
		return nil, false
	}
	return e.value, true
}

// Set inserts or overwrites, returning true when the key is new.
func (d *dict) Set(key string, value []byte) bool {
	if d.rehashing() {
		d.rehashStep()
	}
	if e := d.find(key); e != nil {
		e.value = value
		return false
	}
	d.maybeGrow()
	// Insert into table 1 while rehashing, else table 0.
	t := 0
	if d.rehashing() {
		t = 1
	}
	table := d.tables[t]
	idx := hashString(key) & uint64(len(table)-1)
	table[idx] = &dictEntry{key: key, value: value, next: table[idx]}
	d.used[t]++
	return true
}

// Delete removes key, reporting whether it existed.
func (d *dict) Delete(key string) bool {
	if d.rehashing() {
		d.rehashStep()
	}
	d.chainSteps = 0
	h := hashString(key)
	for t := 0; t < 2; t++ {
		table := d.tables[t]
		if table == nil {
			break
		}
		idx := h & uint64(len(table)-1)
		var prev *dictEntry
		for e := table[idx]; e != nil; e = e.next {
			d.chainSteps++
			if e.key == key {
				if prev == nil {
					table[idx] = e.next
				} else {
					prev.next = e.next
				}
				d.used[t]--
				return true
			}
			prev = e
		}
		if !d.rehashing() {
			break
		}
	}
	return false
}
