package kvstore

import (
	"container/list"
	"fmt"
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
	Key  uint8
	Size uint16
}

// TestLRUMatchesOracle drives the arena LRU and the container/list
// oracle through random Touch, resize, Remove and Contains streams over
// a few keys and a small capacity, so nearly every step evicts, and
// requires identical observable state after every op.
func TestLRUMatchesOracle(t *testing.T) {
	check := func(capacity uint16, ops []lruOp) bool {
		cap64 := int64(capacity % 1024)
		arena, oracle := NewLRU[string](cap64), newOracleLRU(cap64)
		var gotEv, wantEv []string
		arena.OnEvict = func(k string, size int64) { gotEv = append(gotEv, fmt.Sprint(k, "/", size)) }
		oracle.OnEvict = func(k string, size int64) { wantEv = append(wantEv, fmt.Sprint(k, "/", size)) }
		for step, op := range ops {
			key := fmt.Sprintf("k%d", op.Key%12)
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
			if got != want || !reflect.DeepEqual(gotEv, wantEv) ||
				gh != oracle.hits || gm != oracle.misses || ge != oracle.evicted ||
				arena.Used() != oracle.used || arena.Len() != len(oracle.entries) {
				t.Logf("capacity %d, step %d (%+v): result %v/%v, evictions %v/%v, stats %d,%d,%d/%d,%d,%d, used %d/%d, len %d/%d",
					cap64, step, op, got, want, gotEv, wantEv, gh, gm, ge, oracle.hits, oracle.misses, oracle.evicted,
					arena.Used(), oracle.used, arena.Len(), len(oracle.entries))
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestLRUAllocFreeTouch pins the allocation cost of the hot paths: an
// LRU hit and a residency touch of a resident tagged record.
func TestLRUAllocFreeTouch(t *testing.T) {
	c := NewLRU[string](1 << 20)
	c.Touch("k", 64)
	if n := testing.AllocsPerRun(100, func() { c.Touch("k", 64) }); n != 0 {
		t.Errorf("LRU.Touch hit allocates %v times", n)
	}
	r := NewResidency(1 << 20)
	key := fmt.Sprint("user", 42)
	r.TouchRecord(1, key, 1024, false)
	if n := testing.AllocsPerRun(100, func() { r.TouchRecord(1, key, 1024, false) }); n != 0 {
		t.Errorf("Residency.TouchRecord of a resident key allocates %v times", n)
	}
}
