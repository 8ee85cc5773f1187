package wiredtiger

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.LLCBytes = 1 << 20
	cfg.LeafPageBytes = 4 << 10 // small pages: splits happen quickly
	cfg.InnerFanout = 8
	cfg.CacheBytes = 64 << 10
	cfg.CheckpointEveryOps = 500
	return cfg
}

// The tree's operations take the leaf a descent found, which the store
// passes in; these helpers descend first.
func put(bt *btree, k string, v []byte)      { leaf, _ := bt.descend(k); bt.set(leaf, k, v) }
func del(bt *btree, k string) bool           { leaf, _ := bt.descend(k); return bt.delete(leaf, k) }
func get(bt *btree, k string) ([]byte, bool) { leaf, _ := bt.descend(k); return leaf.get(k) }
func seek(bt *btree, k string) (*node, int)  { leaf, _ := bt.descend(k); return leaf.seek(k) }

func TestBtreeSetGet(t *testing.T) {
	bt := newBtree(1<<20, 64)
	if _, ok := get(bt, "a"); ok {
		t.Fatal("empty tree hit")
	}
	put(bt, "a", []byte("1"))
	put(bt, "b", []byte("2"))
	if v, ok := get(bt, "a"); !ok || string(v) != "1" {
		t.Fatalf("get a = %q %v", v, ok)
	}
	// Overwrite.
	put(bt, "a", []byte("9"))
	if v, _ := get(bt, "a"); string(v) != "9" {
		t.Fatal("overwrite lost")
	}
}

func TestBtreeSplitsAndStaysSorted(t *testing.T) {
	bt := newBtree(512, 4) // tiny pages and fanout to force deep trees
	const n = 2000
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%06d", (i*7919)%n)
		put(bt, k, []byte(k))
	}
	if bt.leaves < 10 || bt.height < 2 {
		t.Fatalf("tree did not grow: leaves=%d height=%d", bt.leaves, bt.height)
	}
	// All keys present.
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%06d", i)
		if v, ok := get(bt, k); !ok || string(v) != k {
			t.Fatalf("lost %s after splits", k)
		}
	}
	// Leaf chain is globally sorted and complete.
	var all []string
	bt.walkLeaves(func(leaf *node) {
		all = append(all, leaf.keys...)
	})
	if len(all) != n {
		t.Fatalf("leaf chain has %d keys, want %d", len(all), n)
	}
	if !sort.StringsAreSorted(all) {
		t.Fatal("leaf chain unsorted")
	}
}

func TestBtreeDelete(t *testing.T) {
	bt := newBtree(512, 4)
	for i := 0; i < 500; i++ {
		put(bt, fmt.Sprintf("k%04d", i), []byte("v"))
	}
	if ok := del(bt, "k0100"); !ok {
		t.Fatal("delete existing failed")
	}
	if ok := del(bt, "k0100"); ok {
		t.Fatal("double delete")
	}
	if _, ok := get(bt, "k0100"); ok {
		t.Fatal("key survived delete")
	}
	if _, ok := get(bt, "k0101"); !ok {
		t.Fatal("neighbour lost")
	}
}

func TestBtreeSeekLeaf(t *testing.T) {
	bt := newBtree(512, 4)
	for i := 0; i < 100; i++ {
		put(bt, fmt.Sprintf("k%04d", i*2), nil) // even keys only
	}
	leaf, i := seek(bt, "k0051") // between k0050 and k0052
	if leaf == nil || leaf.keys[i] != "k0052" {
		t.Fatalf("seekLeaf = %v", leaf.keys[i])
	}
	leaf, _ = seek(bt, "zzz")
	if leaf != nil {
		t.Fatal("seek past end should return nil leaf")
	}
}

func TestBtreePropertyMirrorsMap(t *testing.T) {
	type op struct {
		Key  uint8
		Kind uint8
	}
	err := quick.Check(func(ops []op) bool {
		bt := newBtree(256, 4)
		ref := map[string]string{}
		for i, o := range ops {
			k := fmt.Sprintf("k%03d", o.Key)
			switch o.Kind % 3 {
			case 1:
				v := fmt.Sprintf("v%d", i)
				put(bt, k, []byte(v))
				ref[k] = v
			case 2:
				got := del(bt, k)
				_, want := ref[k]
				if got != want {
					return false
				}
				delete(ref, k)
			default:
				v, ok := get(bt, k)
				want, wok := ref[k]
				if ok != wok || (ok && string(v) != want) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStoreReadWriteScan(t *testing.T) {
	s := New(testConfig())
	for i := 0; i < 1000; i++ {
		s.Insert(fmt.Sprintf("user%05d", i), []byte(fmt.Sprintf("val%d", i)))
	}
	if s.Len() != 1000 || s.Name() != "wiredtiger" {
		t.Fatalf("Len=%d", s.Len())
	}
	r := s.Read("user00500")
	if !r.Found || string(r.Value) != "val500" {
		t.Fatalf("read: %+v", r)
	}
	sc := s.Scan("user00100", 20)
	if !sc.Found || sc.ScanCount != 20 {
		t.Fatalf("scan: %+v", sc)
	}
	if s.Read("missing").Found {
		t.Fatal("missing key found")
	}
}

func TestColdReadsFaultPages(t *testing.T) {
	s := New(testConfig()) // 64KB cache, 4KB pages: ~16 pages resident
	val := make([]byte, 500)
	for i := 0; i < 2000; i++ {
		s.Insert(fmt.Sprintf("user%05d", i), val)
	}
	// Random-ish probes across a working set far exceeding the cache.
	faults := 0
	for i := 0; i < 200; i++ {
		faults += s.Read(fmt.Sprintf("user%05d", (i*997)%2000)).SSDReads
	}
	if faults == 0 {
		t.Fatal("no page faults with a tiny page cache")
	}
	// A hot key stays resident.
	s.Read("user00001")
	if got := s.Read("user00001").SSDReads; got != 0 {
		t.Fatalf("hot page faulted: %d", got)
	}
}

func TestDirtyEvictionQueuesWrites(t *testing.T) {
	s := New(testConfig())
	val := make([]byte, 500)
	for i := 0; i < 3000; i++ {
		s.Update(fmt.Sprintf("user%05d", i), val)
	}
	if s.EvictionWrites() == 0 {
		t.Fatal("dirty evictions queued no writes")
	}
	tasks := s.DrainBackground()
	if len(tasks) == 0 {
		t.Fatal("no background tasks")
	}
	hasWrite := false
	for _, b := range tasks {
		if b.SSDWrites > 0 {
			hasWrite = true
		}
	}
	if !hasWrite {
		t.Fatal("background tasks contain no device writes")
	}
}

func TestCheckpointing(t *testing.T) {
	s := New(testConfig()) // checkpoint every 500 writes
	for i := 0; i < 1600; i++ {
		s.Update(fmt.Sprintf("user%04d", i%100), make([]byte, 200))
	}
	if s.Checkpoints() < 3 {
		t.Fatalf("checkpoints = %d, want >= 3", s.Checkpoints())
	}
}

func TestStoreDelete(t *testing.T) {
	s := New(testConfig())
	s.Insert("k", []byte("v"))
	if !s.Delete("k").Found || s.Delete("k").Found {
		t.Fatal("delete semantics")
	}
	if s.Read("k").Found || s.Len() != 0 {
		t.Fatal("key survived")
	}
}

func TestScanAcrossLeaves(t *testing.T) {
	s := New(testConfig())
	for i := 0; i < 1000; i++ {
		s.Insert(fmt.Sprintf("user%05d", i), make([]byte, 100))
	}
	// 200 records spans many 4KB leaves.
	r := s.Scan("user00100", 200)
	if r.ScanCount != 200 {
		t.Fatalf("scan count = %d", r.ScanCount)
	}
	// Scanning near the end truncates.
	r = s.Scan("user00990", 200)
	if r.ScanCount != 10 {
		t.Fatalf("truncated scan = %d", r.ScanCount)
	}
}

func TestWritesAsync(t *testing.T) {
	s := New(testConfig())
	// First write faults nothing (root leaf resident after creation).
	r := s.Insert("a", []byte("v"))
	if r.Cost.IsZero() {
		t.Fatal("free write")
	}
}
