package redis

import (
	"slices"

	"github.com/holmes-colocation/holmes/internal/kvstore"
)

// dict is a reproduction of the Redis hash table: chained buckets with
// power-of-two sizing and *incremental rehash* — when the load factor
// exceeds 1, a second table of twice the size is allocated and every
// subsequent operation migrates one bucket, bounding per-operation work.
//
// The structure exposes step counters (chain nodes visited, buckets
// migrated) that the store's cost model converts into memory accesses.
//
// Entries live in one slab and chain by slot index. Slot 0 is never
// used, so link 0 ends a chain and a new table is all empty buckets.
// Deleted entries go on a free list, so an insert allocates only when
// the slab adds a chunk, and a clone copies a few flat arrays. Each
// entry keeps the low 32 bits of its key's hash, which pick its bucket
// in any table (int32 slots bound the table size): a key is hashed once,
// when it is set, and a lookup compares keys only on a hash match.
type dict struct {
	entries   kvstore.Slab[dictEntry]
	free      int32      // first free slot (linked by next), 0 = none
	tables    [2][]int32 // each bucket's first entry, 0 = empty
	used      [2]int
	rehashIdx int // -1 when not rehashing; else next bucket of table 0 to move

	// Step counters for the last operation.
	chainSteps   int
	rehashedKeys int
}

type dictEntry struct {
	key   string
	value []byte
	next  int32
	hash  uint32 // the low bits of hashString(key)
}

const dictInitialSize = 16

func newDict() *dict {
	d := &dict{rehashIdx: -1}
	d.tables[0] = make([]int32, dictInitialSize)
	d.entries.Add() // slot 0, never an entry
	return d
}

// clone returns an independent copy of the table, mid-rehash included.
// Links are slot indices, so copying the arrays copies every chain in
// its order, and lookups walk the same steps.
func (d *dict) clone() *dict {
	c := *d
	c.entries = d.entries.Clone()
	for t, table := range d.tables {
		c.tables[t] = slices.Clone(table)
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
	for d.rehashIdx < len(t0) && t0[d.rehashIdx] == 0 {
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
	i := t0[d.rehashIdx]
	t0[d.rehashIdx] = 0
	for i != 0 {
		e := d.entries.At(i)
		next := e.next
		b := &d.tables[1][uint64(e.hash)&uint64(len(d.tables[1])-1)]
		e.next, *b = *b, i
		d.used[0]--
		d.used[1]++
		d.rehashedKeys++
		i = next
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
		d.tables[1] = make([]int32, len(d.tables[0])*2)
		d.rehashIdx = 0
	}
}

// find returns the link (a bucket or an entry's next) that holds key's
// slot and the table it is in, or nil, and counts chain steps.
func (d *dict) find(key string, h uint64) (*int32, int) {
	d.chainSteps = 0
	for t := 0; t < 2 && d.tables[t] != nil; t++ {
		table := d.tables[t]
		for link := &table[h&uint64(len(table)-1)]; *link != 0; link = &d.entries.At(*link).next {
			d.chainSteps++
			if e := d.entries.At(*link); e.hash == uint32(h) && e.key == key {
				return link, t
			}
		}
		if !d.rehashing() {
			break
		}
	}
	return nil, 0
}

// Get looks up key, performing one rehash step first (Redis semantics).
func (d *dict) Get(key string) ([]byte, bool) {
	d.rehashStep()
	if link, _ := d.find(key, hashString(key)); link != nil {
		return d.entries.At(*link).value, true
	}
	return nil, false
}

// Set inserts or overwrites, returning true when the key is new.
func (d *dict) Set(key string, value []byte) bool {
	d.rehashStep()
	h := hashString(key)
	if link, _ := d.find(key, h); link != nil {
		d.entries.At(*link).value = value
		return false
	}
	d.maybeGrow()
	// Insert into table 1 while rehashing, else table 0.
	t := 0
	if d.rehashing() {
		t = 1
	}
	i := d.free
	if i != 0 {
		d.free = d.entries.At(i).next
	} else {
		i = d.entries.Add()
	}
	b := &d.tables[t][h&uint64(len(d.tables[t])-1)]
	*d.entries.At(i) = dictEntry{key: key, value: value, next: *b, hash: uint32(h)}
	*b = i
	d.used[t]++
	return true
}

// Delete removes key, reporting whether it existed. Its slot goes on
// the free list.
func (d *dict) Delete(key string) bool {
	d.rehashStep()
	link, t := d.find(key, hashString(key))
	if link == nil {
		return false
	}
	i := *link
	e := d.entries.At(i)
	*link = e.next
	*e = dictEntry{next: d.free} // drop the key and value for the GC
	d.free = i
	d.used[t]--
	return true
}
