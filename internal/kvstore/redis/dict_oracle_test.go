package redis

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// oracleDict is the pointer hash table the slab dict replaced, kept as a
// test oracle: one heap entry per key, chained by pointer, with the same
// incremental rehash and step counters.
type oracleDict struct {
	tables    [2][]*oracleDictEntry
	used      [2]int
	rehashIdx int // -1 when not rehashing; else next bucket of table 0 to move

	// Step counters for the last operation.
	chainSteps   int
	rehashedKeys int
}

type oracleDictEntry struct {
	key   string
	value []byte
	next  *oracleDictEntry
}

func newOracleDict() *oracleDict {
	return &oracleDict{
		tables:    [2][]*oracleDictEntry{make([]*oracleDictEntry, dictInitialSize), nil},
		rehashIdx: -1,
	}
}

// clone returns an independent copy of the table, mid-rehash included.
// Each bucket's chain keeps its order, so lookups walk the same steps.
// The copied entries share one allocation.
func (d *oracleDict) clone() *oracleDict {
	c := *d
	entries := make([]oracleDictEntry, d.Len())
	for t, table := range d.tables {
		if table == nil {
			continue
		}
		c.tables[t] = make([]*oracleDictEntry, len(table))
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
func (d *oracleDict) Len() int { return d.used[0] + d.used[1] }

func (d *oracleDict) rehashing() bool { return d.rehashIdx >= 0 }

// rehashStep migrates one non-empty bucket from table 0 to table 1.
func (d *oracleDict) rehashStep() {
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

func (d *oracleDict) finishRehash() {
	d.tables[0] = d.tables[1]
	d.tables[1] = nil
	d.used[0] += d.used[1]
	d.used[1] = 0
	d.rehashIdx = -1
}

// maybeGrow starts an incremental rehash when load factor exceeds 1.
func (d *oracleDict) maybeGrow() {
	if d.rehashing() {
		return
	}
	if d.used[0] >= len(d.tables[0]) {
		d.tables[1] = make([]*oracleDictEntry, len(d.tables[0])*2)
		d.rehashIdx = 0
	}
}

// find returns the entry for key and counts chain steps.
func (d *oracleDict) find(key string) *oracleDictEntry {
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
func (d *oracleDict) Get(key string) ([]byte, bool) {
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
func (d *oracleDict) Set(key string, value []byte) bool {
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
	table[idx] = &oracleDictEntry{key: key, value: value, next: table[idx]}
	d.used[t]++
	return true
}

// Delete removes key, reporting whether it existed.
func (d *oracleDict) Delete(key string) bool {
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
		var prev *oracleDictEntry
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

// dictOp is one step of a random stream: Set, Get, Delete or Clone.
type dictOp struct {
	Kind uint8
	Key  uint16
}

// chains renders every bucket chain of both tables in order, a bucket
// per "|".
func (d *dict) chains() string {
	var b strings.Builder
	for _, table := range d.tables {
		for _, e := range table {
			for ; e != 0; e = d.entries.At(e).next {
				b.WriteString(d.entries.At(e).key)
			}
			b.WriteByte('|')
		}
		b.WriteByte('#')
	}
	return b.String()
}

func (d *oracleDict) chains() string {
	var b strings.Builder
	for _, table := range d.tables {
		for _, e := range table {
			for ; e != nil; e = e.next {
				b.WriteString(e.key)
			}
			b.WriteByte('|')
		}
		b.WriteByte('#')
	}
	return b.String()
}

// dictOracleMismatch drives the slab dict and the pointer oracle
// through ops over keys k0..k(keys-1) and describes the first step
// after which their results, step counters, lengths or bucket chains
// differ, or returns "". A Clone step carries on with clones of both
// and then writes to the originals, so a clone sharing state with its
// source shows. rehashing counts the steps taken mid-rehash.
func dictOracleMismatch(keys int, ops []dictOp, rehashing *int) string {
	slab, oracle := newDict(), newOracleDict()
	for step, op := range ops {
		key := fmt.Sprintf("k%d", int(op.Key)%keys)
		var got, want string
		switch op.Kind % 8 {
		case 0, 1, 2, 3:
			val := []byte{byte(step)}
			got, want = fmt.Sprint(slab.Set(key, val)), fmt.Sprint(oracle.Set(key, val))
		case 4, 5:
			v, ok := slab.Get(key)
			got = fmt.Sprint(v, ok)
			v, ok = oracle.Get(key)
			want = fmt.Sprint(v, ok)
		case 6:
			got, want = fmt.Sprint(slab.Delete(key)), fmt.Sprint(oracle.Delete(key))
		case 7:
			s, o := slab, oracle
			slab, oracle = s.clone(), o.clone()
			s.Set(key+"x", nil)
			s.Delete(key)
			o.Set(key+"x", nil)
			o.Delete(key)
		}
		if oracle.rehashing() {
			*rehashing++
		}
		if got != want || slab.chainSteps != oracle.chainSteps || slab.rehashedKeys != oracle.rehashedKeys ||
			slab.Len() != oracle.Len() || slab.rehashIdx != oracle.rehashIdx || slab.used != oracle.used ||
			slab.chains() != oracle.chains() {
			return fmt.Sprintf("%d keys, step %d (%+v): result %s/%s, chain steps %d/%d, rehashed %d/%d, len %d/%d, rehash index %d/%d\nchains %s\noracle %s",
				keys, step, op, got, want, slab.chainSteps, oracle.chainSteps, slab.rehashedKeys, oracle.rehashedKeys,
				slab.Len(), oracle.Len(), slab.rehashIdx, oracle.rehashIdx, slab.chains(), oracle.chains())
		}
	}
	return ""
}

// TestDictMatchesOracle drives the slab dict and the pointer dict it
// replaced through random Set, Get, Delete and Clone streams and
// requires identical results, chainSteps, rehashedKeys, lengths and
// bucket chains after every op, clones included. Two key ranges: two
// dozen keys, so the table grows from 16 buckets and deletes hit often;
// and a thousand keys in long streams, so the table doubles several
// times and most ops land mid-rehash.
func TestDictMatchesOracle(t *testing.T) {
	for _, c := range []struct {
		keys, ops, count int
	}{{24, 0, 300}, {1000, 4000, 10}} {
		rehashing := 0
		cfg := &quick.Config{MaxCount: c.count}
		if c.ops > 0 {
			cfg.Values = func(args []reflect.Value, r *rand.Rand) {
				ops := make([]dictOp, c.ops)
				for i := range ops {
					ops[i] = dictOp{Kind: uint8(r.Uint32()), Key: uint16(r.Uint32())}
				}
				args[0] = reflect.ValueOf(ops)
			}
		}
		check := func(ops []dictOp) bool {
			if msg := dictOracleMismatch(c.keys, ops, &rehashing); msg != "" {
				t.Log(msg)
				return false
			}
			return true
		}
		if err := quick.Check(check, cfg); err != nil {
			t.Fatal(err)
		}
		if rehashing == 0 {
			t.Fatalf("%d keys: no step ran mid-rehash", c.keys)
		}
	}
}
