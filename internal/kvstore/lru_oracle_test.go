package kvstore

import (
	"bytes"
	"container/list"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// oracleLRU is the container/list LRU the arena LRU replaced, kept as a
// test oracle: same recency order, eviction order, OnEvict sequence and
// stats, one heap element per entry.
type oracleLRU struct {
	capacity int64
	used     int64
	order    *list.List               // front = most recent
	entries  map[string]*list.Element // key -> element holding *oracleEntry
	hits     int64
	misses   int64
	evicted  int64
	OnEvict  func(key string, size int64)
}

type oracleEntry struct {
	key  string
	size int64
}

func newOracleLRU(capacity int64) *oracleLRU {
	return &oracleLRU{capacity: capacity, order: list.New(), entries: map[string]*list.Element{}}
}

func (c *oracleLRU) Touch(key string, size int64) bool {
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*oracleEntry)
		c.order.MoveToFront(el)
		if e.size != size {
			c.used += size - e.size
			e.size = size
			c.evictIfNeeded()
		}
		c.hits++
		return true
	}
	c.misses++
	if c.capacity <= 0 || size > c.capacity {
		return false
	}
	c.entries[key] = c.order.PushFront(&oracleEntry{key: key, size: size})
	c.used += size
	c.evictIfNeeded()
	return false
}

func (c *oracleLRU) Remove(key string) {
	if el, ok := c.entries[key]; ok {
		c.used -= el.Value.(*oracleEntry).size
		c.order.Remove(el)
		delete(c.entries, key)
	}
}

func (c *oracleLRU) evictIfNeeded() {
	for c.used > c.capacity {
		back := c.order.Back()
		if back == nil {
			return
		}
		e := back.Value.(*oracleEntry)
		c.order.Remove(back)
		delete(c.entries, e.key)
		c.used -= e.size
		c.evicted++
		if c.OnEvict != nil {
			c.OnEvict(e.key, e.size)
		}
	}
}

// lruOp is one step of a random stream: Touch (which resizes when the
// key is resident with another size), Remove or Contains.
type lruOp struct {
	Kind uint8
	Key  uint16
	Size uint16
}

// clusteredHash sends every key to one of the last eight buckets of any
// table, so each probe run starts at the table's end and wraps past it,
// and distinct keys share a hash.
func clusteredHash(k string) uint64 { return ^uint64(0) - HashString(k)%8 }

// lruOracleMismatch drives the arena LRU (indexed with hash) and the
// container/list oracle through ops, naming keys k0..k(keys-1), and
// describes the first step after which their observable state differs,
// or returns "".
func lruOracleMismatch(cap64 int64, keys int, hash func(string) uint64, ops []lruOp) string {
	arena, oracle := NewLRU(cap64, hash), newOracleLRU(cap64)
	var gotEv, wantEv []string
	arena.OnEvict = func(k string, size int64) { gotEv = append(gotEv, fmt.Sprint(k, "/", size)) }
	oracle.OnEvict = func(k string, size int64) { wantEv = append(wantEv, fmt.Sprint(k, "/", size)) }
	for step, op := range ops {
		seen := len(wantEv)
		key := fmt.Sprintf("k%d", int(op.Key)%keys)
		size := int64(op.Size%256) + 1
		var got, want bool
		switch op.Kind % 4 {
		case 0, 1:
			got, want = arena.Touch(key, size), oracle.Touch(key, size)
		case 2:
			arena.Remove(key)
			oracle.Remove(key)
		case 3:
			_, want = oracle.entries[key]
			got = arena.Contains(key)
		}
		gh, gm, ge := arena.Stats()
		if got != want || len(gotEv) != len(wantEv) || !reflect.DeepEqual(gotEv[seen:], wantEv[seen:]) ||
			gh != oracle.hits || gm != oracle.misses || ge != oracle.evicted ||
			arena.Used() != oracle.used || arena.Len() != len(oracle.entries) {
			return fmt.Sprintf("capacity %d, %d keys, step %d (%+v): result %v/%v, evictions %v/%v, stats %d,%d,%d/%d,%d,%d, used %d/%d, len %d/%d",
				cap64, keys, step, op, got, want, gotEv[seen:], wantEv[seen:], gh, gm, ge, oracle.hits, oracle.misses, oracle.evicted,
				arena.Used(), oracle.used, arena.Len(), len(oracle.entries))
		}
	}
	return ""
}

// TestLRUMatchesOracle drives the arena LRU and the container/list
// oracle through random Touch, resize, Remove and Contains streams and
// requires identical observable state after every op. Two key ranges:
// a dozen keys over a small capacity, so nearly every step evicts; and
// thousands of keys over a capacity holding hundreds of entries, in
// long streams, so the index grows, probe runs get long and evictions
// delete by backward shift across the table's end (with the clustered
// hash, on every probe run). A last case inserts keys one by one across
// the index's first three 3/4-load boundaries, so a miss is placed both
// where its probe stopped and, when the table doubles, by a new probe.
func TestLRUMatchesOracle(t *testing.T) {
	small := func(capacity uint16, ops []lruOp) bool {
		if msg := lruOracleMismatch(int64(capacity%1024), 12, HashString, ops); msg != "" {
			t.Log(msg)
			return false
		}
		return true
	}
	if err := quick.Check(small, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	long := func(args []reflect.Value, r *rand.Rand) {
		args[0] = reflect.ValueOf(uint16(r.Uint32()))
		ops := make([]lruOp, 6000)
		for i := range ops {
			ops[i] = lruOp{Kind: uint8(r.Uint32()), Key: uint16(r.Uint32()), Size: uint16(r.Uint32())}
		}
		args[1] = reflect.ValueOf(ops)
	}
	for _, h := range []struct {
		name string
		hash func(string) uint64
	}{{"maphash", HashString}, {"clustered", clusteredHash}} {
		large := func(capacity uint16, ops []lruOp) bool {
			if msg := lruOracleMismatch(16<<10+int64(capacity%(48<<10)), 4000, h.hash, ops); msg != "" {
				t.Logf("%s: %s", h.name, msg)
				return false
			}
			return true
		}
		if err := quick.Check(large, &quick.Config{MaxCount: 12, Values: long}); err != nil {
			t.Fatal(err)
		}
	}
	// Inserts that land exactly at the 3/4-load boundary: the 12th, 24th
	// and 48th keys fill the table to 3/4 and are placed in the bucket
	// their probe stopped at; the 13th, 25th and 49th double it first and
	// are placed by a fresh probe. Then every key is looked up, touched
	// and removed.
	for _, h := range []struct {
		name string
		hash func(string) uint64
	}{{"maphash", HashString}, {"clustered", clusteredHash}} {
		const keys = 49
		var ops []lruOp
		c := NewLRU(1<<20, h.hash)
		for k := range keys {
			ops = append(ops, lruOp{Kind: 0, Key: uint16(k), Size: 1})
			c.Touch(fmt.Sprintf("k%d", k), 1)
			want := minTable
			for (k+1)*4 > want*3 {
				want *= 2
			}
			if len(c.table) != want {
				t.Fatalf("%s: %d keys in a %d-bucket table, want %d buckets", h.name, k+1, len(c.table), want)
			}
		}
		for k := range keys {
			ops = append(ops, lruOp{Kind: 3, Key: uint16(k)}, lruOp{Kind: 0, Key: uint16(k), Size: 2})
		}
		for k := range keys {
			ops = append(ops, lruOp{Kind: 2, Key: uint16(k)}, lruOp{Kind: 3, Key: uint16(k)})
		}
		if msg := lruOracleMismatch(1<<20, keys, h.hash, ops); msg != "" {
			t.Fatalf("%s, growth boundary: %s", h.name, msg)
		}
	}
}

// FuzzLRUOracle runs the oracle comparison over fuzzed op streams, four
// bytes per op (kind, key low, key high, size). mode bit 0 picks the
// 4,000-key range over a capacity of hundreds of entries, bit 1 the
// clustered hash.
func FuzzLRUOracle(f *testing.F) {
	f.Add(uint16(300), uint8(0), []byte("\x00\x01\x00\x40\x00\x02\x00\x80\x02\x01\x00\x00\x03\x02\x00\x00"))
	f.Add(uint16(9000), uint8(3), bytes.Repeat([]byte{0x00, 0x35, 0x07, 0x90, 0x02, 0x11, 0x03, 0x01}, 200))
	f.Fuzz(func(t *testing.T, capacity uint16, mode uint8, data []byte) {
		ops := make([]lruOp, len(data)/4)
		for i := range ops {
			b := data[4*i:]
			ops[i] = lruOp{Kind: b[0], Key: uint16(b[1]) | uint16(b[2])<<8, Size: uint16(b[3])}
		}
		cap64, keys, hash := int64(capacity%1024), 12, HashString
		if mode&1 != 0 {
			cap64, keys = 16<<10+int64(capacity%(48<<10)), 4000
		}
		if mode&2 != 0 {
			hash = clusteredHash
		}
		if msg := lruOracleMismatch(cap64, keys, hash, ops); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestLRUAllocFreeTouch pins the allocation cost of the hot paths: an
// LRU hit, a steady-state LRU miss that evicts, and a residency touch of
// a resident tagged record.
func TestLRUAllocFreeTouch(t *testing.T) {
	c := NewLRU(1<<20, HashString)
	c.Touch("k", 64)
	if n := testing.AllocsPerRun(100, func() { c.Touch("k", 64) }); n != 0 {
		t.Errorf("LRU.Touch hit allocates %v times", n)
	}
	// A miss that evicts reuses the evicted slot and leaves the index's
	// load where it was: 1000 keys cycled through room for 100.
	names := make([]string, 1000)
	for i := range names {
		names[i] = fmt.Sprint("key", i)
	}
	ev := NewLRU(100*64, HashString)
	for _, k := range names {
		ev.Touch(k, 64)
	}
	next := 0
	if n := testing.AllocsPerRun(1000, func() {
		ev.Touch(names[next%len(names)], 64)
		next++
	}); n != 0 {
		t.Errorf("LRU.Touch miss that evicts allocates %v times", n)
	}
	if _, _, evicted := ev.Stats(); evicted < 1000 {
		t.Fatalf("only %d evictions; every timed touch should evict", evicted)
	}
	r := NewResidency(1 << 20)
	key := fmt.Sprint("user", 42)
	r.TouchRecord(1, key, 1024, false)
	if n := testing.AllocsPerRun(100, func() { r.TouchRecord(1, key, 1024, false) }); n != 0 {
		t.Errorf("Residency.TouchRecord of a resident key allocates %v times", n)
	}
}
