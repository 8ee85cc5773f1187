package kvstore

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"github.com/holmes-colocation/holmes/internal/workload"
)

func TestLRUBasics(t *testing.T) {
	c := NewLRU(300, HashString)
	if c.Touch("a", 100) {
		t.Fatal("first touch should miss")
	}
	if !c.Touch("a", 100) {
		t.Fatal("second touch should hit")
	}
	c.Touch("b", 100)
	c.Touch("c", 100)
	if c.Used() != 300 || c.Len() != 3 {
		t.Fatalf("used=%d len=%d", c.Used(), c.Len())
	}
	// Inserting d evicts the LRU entry (a was most recently... a,b,c ->
	// a is oldest after its last touch? a touched twice then b, c:
	// recency order c,b,a; inserting d evicts a).
	c.Touch("d", 100)
	if c.Contains("a") {
		t.Fatal("a should have been evicted")
	}
	if !c.Contains("d") || !c.Contains("b") || !c.Contains("c") {
		t.Fatal("wrong eviction victim")
	}
	h, m, e := c.Stats()
	if h != 1 || m != 4 || e != 1 {
		t.Fatalf("stats = %d/%d/%d", h, m, e)
	}
}

func TestLRURecencyUpdates(t *testing.T) {
	c := NewLRU(200, HashString)
	c.Touch("a", 100)
	c.Touch("b", 100)
	c.Touch("a", 100) // refresh a
	c.Touch("c", 100) // evicts b, not a
	if !c.Contains("a") || c.Contains("b") {
		t.Fatal("recency not updated by Touch")
	}
}

func TestLRUResize(t *testing.T) {
	c := NewLRU(200, HashString)
	c.Touch("a", 100)
	c.Touch("b", 50)
	c.Touch("a", 180) // grows a, evicting b
	if c.Contains("b") {
		t.Fatal("resize did not evict")
	}
	if c.Used() != 180 {
		t.Fatalf("used = %d", c.Used())
	}
}

func TestLRUOversizedEntry(t *testing.T) {
	c := NewLRU(100, HashString)
	c.Touch("huge", 1000)
	if c.Contains("huge") || c.Used() != 0 {
		t.Fatal("oversized entry must not be cached")
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	c := NewLRU(0, HashString)
	c.Touch("a", 1)
	if c.Contains("a") {
		t.Fatal("zero-capacity cache cached something")
	}
}

func TestLRUOnEvict(t *testing.T) {
	c := NewLRU(100, HashString)
	var evicted []string
	c.OnEvict = func(key string, size int64) { evicted = append(evicted, key) }
	c.Touch("a", 60)
	c.Touch("b", 60)
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Fatalf("OnEvict = %v", evicted)
	}
	// Explicit Remove does not call OnEvict (invalidation semantics).
	c.Remove("b")
	if len(evicted) != 1 {
		t.Fatal("Remove triggered OnEvict")
	}
	if c.Used() != 0 {
		t.Fatalf("used after remove = %d", c.Used())
	}
}

func TestLRUUsedNeverExceedsCapacity(t *testing.T) {
	err := quick.Check(func(ops []struct {
		Key  uint8
		Size uint16
	}) bool {
		c := NewLRU(4096, HashString)
		for _, op := range ops {
			c.Touch(fmt.Sprintf("k%d", op.Key), int64(op.Size))
			if c.Used() > 4096 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestResidencyLevels(t *testing.T) {
	r := NewResidency(1 << 20)
	// Cold access: DRAM.
	c := r.TouchRecord(0, "k1", 1024, false)
	if c.Acc[workload.DRAM].Loads == 0 || c.Acc[workload.L3].Loads != 0 {
		t.Fatalf("cold access cost: %+v", c)
	}
	// Warm access: L3.
	c = r.TouchRecord(0, "k1", 1024, false)
	if c.Acc[workload.L3].Loads == 0 || c.Acc[workload.DRAM].Loads != 0 {
		t.Fatalf("warm access cost: %+v", c)
	}
	// Writes produce stores.
	c = r.TouchRecord(0, "k1", 1024, true)
	if c.Acc[workload.L3].Stores == 0 {
		t.Fatalf("write cost: %+v", c)
	}
	if r.HitRate() <= 0 {
		t.Fatal("hit rate not tracked")
	}
	r.Invalidate(0, "k1")
	c = r.TouchRecord(0, "k1", 1024, false)
	if c.Acc[workload.DRAM].Loads == 0 {
		t.Fatal("invalidation ignored")
	}
}

func TestResidencyEvictionUnderPressure(t *testing.T) {
	r := NewResidency(10 * 1024)
	for i := 0; i < 100; i++ {
		r.TouchRecord(0, fmt.Sprintf("k%d", i), 1024, false)
	}
	// Working set is 10x the LLC: early keys must be cold again.
	c := r.TouchRecord(0, "k0", 1024, false)
	if c.Acc[workload.DRAM].Loads == 0 {
		t.Fatal("k0 should have been evicted from the LLC model")
	}
}

func TestResidencyTagsAreDistinct(t *testing.T) {
	r := NewResidency(1 << 20)
	r.TouchRecord(0, "k", 64, false)
	if c := r.TouchRecord(1, "k", 64, false); c.Acc[workload.DRAM].Loads == 0 {
		t.Fatal("the same key under another tag shared a residency entry")
	}
	r.Invalidate(1, "k")
	if c := r.TouchRecord(0, "k", 64, false); c.Acc[workload.L3].Loads == 0 {
		t.Fatal("invalidating one tag evicted the other")
	}
}

func TestSkiplistSetGetDelete(t *testing.T) {
	s := NewSkiplist(1)
	if _, ok := s.Get("a"); ok {
		t.Fatal("empty get should miss")
	}
	if !s.Set("a", []byte("1")) {
		t.Fatal("first set should be new")
	}
	if s.Set("a", []byte("2")) {
		t.Fatal("overwrite should not be new")
	}
	v, ok := s.Get("a")
	if !ok || string(v) != "2" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Delete("a") || s.Delete("a") {
		t.Fatal("delete semantics wrong")
	}
	if s.Len() != 0 {
		t.Fatal("Len after delete")
	}
}

func TestSkiplistOrderedIteration(t *testing.T) {
	s := NewSkiplist(7)
	keys := []string{"d", "a", "c", "b", "e"}
	for _, k := range keys {
		s.Set(k, []byte(k))
	}
	var got []string
	s.All(func(k string, v []byte) { got = append(got, k) })
	if !sort.StringsAreSorted(got) || len(got) != 5 {
		t.Fatalf("All order = %v", got)
	}
	if s.Min() != "a" {
		t.Fatalf("Min = %q", s.Min())
	}
}

func TestSkiplistSeek(t *testing.T) {
	s := NewSkiplist(3)
	for i := 0; i < 100; i++ {
		s.Set(fmt.Sprintf("k%03d", i), nil)
	}
	var visited []string
	n := s.Seek("k050", 10, func(k string, v []byte) bool {
		visited = append(visited, k)
		return true
	})
	if n != 10 || visited[0] != "k050" || visited[9] != "k059" {
		t.Fatalf("Seek visited %v (n=%d)", visited, n)
	}
	// Early stop.
	count := 0
	s.Seek("k000", 50, func(k string, v []byte) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
	// Seek past the end.
	if n := s.Seek("z", 5, func(string, []byte) bool { return true }); n != 0 {
		t.Fatalf("Seek past end visited %d", n)
	}
}

func TestSkiplistLargeOrdered(t *testing.T) {
	s := NewSkiplist(11)
	const n = 10000
	perm := make([]int, n)
	for i := range perm {
		perm[i] = (i * 7919) % n // pseudo-random insertion order
	}
	for _, i := range perm {
		s.Set(fmt.Sprintf("key%06d", i), []byte{byte(i)})
	}
	if s.Len() != n {
		t.Fatalf("Len = %d", s.Len())
	}
	prev := ""
	count := 0
	s.All(func(k string, v []byte) {
		if k <= prev {
			t.Fatalf("order violated at %q after %q", k, prev)
		}
		prev = k
		count++
	})
	if count != n {
		t.Fatalf("iterated %d", count)
	}
	// Search steps should be O(log n), far below n.
	s.Get("key005000")
	if steps := s.LastSearchSteps(); steps > 200 {
		t.Fatalf("search steps = %d, skiplist degenerated", steps)
	}
}

func TestSkiplistDeterminism(t *testing.T) {
	build := func() *Skiplist {
		s := NewSkiplist(42)
		for i := 0; i < 1000; i++ {
			s.Set(fmt.Sprintf("k%04d", i), nil)
		}
		return s
	}
	a, b := build(), build()
	a.Get("k0500")
	b.Get("k0500")
	if a.LastSearchSteps() != b.LastSearchSteps() {
		t.Fatal("skiplist structure not deterministic")
	}
}

func TestResultItemsNoSSD(t *testing.T) {
	r := Result{Found: true, Cost: workload.Compute(100)}
	fired := false
	items := r.Items(func(int64) { fired = true })
	if len(items) != 1 {
		t.Fatalf("items = %d", len(items))
	}
	items[0].OnComplete(0)
	if !fired {
		t.Fatal("OnComplete not attached")
	}
}

func TestResultItemsWithSSD(t *testing.T) {
	r := Result{Found: true, Cost: workload.Compute(100), SSDReads: 2}
	items := r.Items(nil)
	if len(items) != 4 {
		t.Fatalf("items = %d, want pre + 2 sleeps + post", len(items))
	}
	if items[1].SleepNs != SSDReadLatencyNs || items[2].SleepNs != SSDReadLatencyNs {
		t.Fatal("sleep latencies wrong")
	}
	for _, it := range items {
		if err := it.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBackgroundTaskItems(t *testing.T) {
	b := BackgroundTask{Cost: workload.Compute(10), SSDReads: 1, SSDWrites: 3}
	items := b.Items()
	if len(items) != 5 {
		t.Fatalf("items = %d", len(items))
	}
	if items[1].SleepNs != SSDReadLatencyNs || items[4].SleepNs != SSDWriteLatencyNs {
		t.Fatal("device latencies wrong")
	}
}
