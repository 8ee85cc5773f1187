package rocksdb

import (
	"fmt"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.LLCBytes = 1 << 20
	cfg.MemtableBytes = 64 << 10 // small memtable so flushes happen in tests
	cfg.BlockCacheBytes = 256 << 10
	cfg.LevelBaseBytes = 256 << 10
	cfg.MaxTableBytes = 128 << 10
	return cfg
}

// bloomOf builds a filter over keys.
func bloomOf(keys []string, bitsPerKey int) *bloom {
	b := newBloom(len(keys), bitsPerKey)
	for _, k := range keys {
		b.add(k)
	}
	return b
}

func TestBloomNoFalseNegatives(t *testing.T) {
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%05d", i)
	}
	b := bloomOf(keys, 10)
	for _, k := range keys {
		if !b.mayContain(k) {
			t.Fatalf("false negative for %s", k)
		}
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	keys := make([]string, 10000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%06d", i)
	}
	b := bloomOf(keys, 10)
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if b.mayContain(fmt.Sprintf("absent%06d", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.05 {
		t.Fatalf("false positive rate %.3f too high for 10 bits/key", rate)
	}
}

func TestSSTableGetSeek(t *testing.T) {
	entries := []entry{
		{key: "a", value: []byte("1")},
		{key: "c", value: []byte("3")},
		{key: "e", value: []byte("5")},
	}
	st := buildSSTable(1, 0, entries, 4096, 10)
	if e, _, ok := st.get("c"); !ok || string(e.value) != "3" {
		t.Fatalf("get c: %+v %v", e, ok)
	}
	if _, _, ok := st.get("b"); ok {
		t.Fatal("absent key found")
	}
	if i := st.seek("b"); i != 1 {
		t.Fatalf("seek b = %d", i)
	}
	if !st.overlaps("b", "d") || st.overlaps("f", "z") {
		t.Fatal("overlaps wrong")
	}
	if st.minKey != "a" || st.maxKey != "e" {
		t.Fatal("key range wrong")
	}
}

func TestSSTableBlockAssignment(t *testing.T) {
	var entries []entry
	for i := 0; i < 100; i++ {
		entries = append(entries, entry{key: fmt.Sprintf("k%03d", i), value: make([]byte, 100)})
	}
	st := buildSSTable(1, 0, entries, 1024, 10)
	if st.numBlocks < 10 {
		t.Fatalf("numBlocks = %d, want ~12 for 100x~120B entries in 1KB blocks", st.numBlocks)
	}
	prev := int32(0)
	for _, b := range st.blockOf {
		if b < prev || b > prev+1 {
			t.Fatal("block assignment not contiguous")
		}
		prev = b
	}
}

func TestMergePrecedence(t *testing.T) {
	newer := []entry{{key: "a", value: []byte("new")}, {key: "b", del: true}}
	older := []entry{{key: "a", value: []byte("old")}, {key: "b", value: []byte("x")}, {key: "c", value: []byte("3")}}
	got := mergeEntries([][]entry{newer, older}, true)
	if len(got) != 3 {
		t.Fatalf("merged = %+v", got)
	}
	if string(got[0].value) != "new" {
		t.Fatal("newer value did not win")
	}
	if !got[1].del {
		t.Fatal("tombstone dropped with keepTombstones=true")
	}
	// Bottommost merge drops tombstones.
	got = mergeEntries([][]entry{newer, older}, false)
	if len(got) != 2 || got[0].key != "a" || got[1].key != "c" {
		t.Fatalf("bottommost merge = %+v", got)
	}
}

func TestStoreReadYourWrites(t *testing.T) {
	s := New(testConfig())
	if s.Read("k").Found {
		t.Fatal("empty store hit")
	}
	s.Insert("k", []byte("v1"))
	if r := s.Read("k"); !r.Found || string(r.Value) != "v1" {
		t.Fatalf("read back: %+v", r)
	}
	s.Update("k", []byte("v2"))
	if r := s.Read("k"); string(r.Value) != "v2" {
		t.Fatalf("after update: %q", r.Value)
	}
	if s.Name() != "rocksdb" {
		t.Fatal("name")
	}
}

func TestFlushAndReadThroughSSTables(t *testing.T) {
	s := New(testConfig())
	val := make([]byte, 1000)
	const n = 500 // ~500KB: multiple memtable flushes
	for i := 0; i < n; i++ {
		s.Insert(fmt.Sprintf("key%05d", i), val)
	}
	if s.Flushes() == 0 {
		t.Fatal("no flushes despite exceeding memtable size")
	}
	// Every key must be readable, wherever it now lives.
	for i := 0; i < n; i += 7 {
		if !s.Read(fmt.Sprintf("key%05d", i)).Found {
			t.Fatalf("key %d lost after flush", i)
		}
	}
	if tasks := s.DrainBackground(); len(tasks) == 0 {
		t.Fatal("flushes queued no background work")
	} else {
		for _, task := range tasks {
			if task.Cost.IsZero() && task.SSDWrites == 0 {
				t.Fatalf("empty background task: %+v", task)
			}
		}
	}
	if tasks := s.DrainBackground(); tasks != nil {
		t.Fatal("DrainBackground not clearing")
	}
}

func TestCompactionKeepsDataAndShrinksL0(t *testing.T) {
	s := New(testConfig())
	val := make([]byte, 1000)
	const n = 3000
	for i := 0; i < n; i++ {
		s.Insert(fmt.Sprintf("key%05d", i), val)
	}
	if s.Compactions() == 0 {
		t.Fatal("no compactions despite many flushes")
	}
	counts := s.LevelTableCounts()
	if counts[0] >= l0CompactionTrigger+1 {
		t.Fatalf("L0 not being compacted: %v", counts)
	}
	deeper := 0
	for _, c := range counts[1:] {
		deeper += c
	}
	if deeper == 0 {
		t.Fatalf("no tables below L0: %v", counts)
	}
	for i := 0; i < n; i += 13 {
		r := s.Read(fmt.Sprintf("key%05d", i))
		if !r.Found || len(r.Value) != 1000 {
			t.Fatalf("key %d lost in compaction", i)
		}
	}
}

func TestUpdatesSupersedeAcrossCompaction(t *testing.T) {
	s := New(testConfig())
	// First generation of values.
	for i := 0; i < 1000; i++ {
		s.Insert(fmt.Sprintf("key%05d", i), []byte(fmt.Sprintf("gen1-%d", i)))
	}
	// Overwrite everything; compactions must keep the newest.
	for i := 0; i < 1000; i++ {
		s.Update(fmt.Sprintf("key%05d", i), []byte(fmt.Sprintf("gen2-%d", i)))
	}
	for i := 0; i < 1000; i += 11 {
		r := s.Read(fmt.Sprintf("key%05d", i))
		want := fmt.Sprintf("gen2-%d", i)
		if !r.Found || string(r.Value) != want {
			t.Fatalf("key %d = %q, want %q", i, r.Value, want)
		}
	}
}

func TestDeleteTombstones(t *testing.T) {
	s := New(testConfig())
	for i := 0; i < 1000; i++ {
		s.Insert(fmt.Sprintf("key%05d", i), make([]byte, 500))
	}
	s.Delete("key00010")
	if s.Read("key00010").Found {
		t.Fatal("deleted key readable from memtable")
	}
	// Push the tombstone through flushes and compactions.
	for i := 1000; i < 3000; i++ {
		s.Insert(fmt.Sprintf("key%05d", i), make([]byte, 500))
	}
	if s.Read("key00010").Found {
		t.Fatal("deleted key resurrected by compaction")
	}
	if !s.Read("key00011").Found {
		t.Fatal("neighbour key lost")
	}
}

func TestScanOrderedAndMerged(t *testing.T) {
	s := New(testConfig())
	for i := 0; i < 2000; i++ {
		s.Insert(fmt.Sprintf("key%05d", i), []byte{byte(i)})
	}
	// Overwrite a key so the scan must take the newest version.
	s.Update("key00500", []byte{99})
	r := s.Scan("key00498", 10)
	if !r.Found || r.ScanCount != 10 {
		t.Fatalf("scan: %+v", r)
	}
	// Deleted keys must not appear.
	s.Delete("key00499")
	r = s.Scan("key00498", 3)
	if r.ScanCount != 3 {
		t.Fatalf("scan after delete: %+v", r)
	}
}

func TestColdReadRequiresSSD(t *testing.T) {
	cfg := testConfig()
	cfg.BlockCacheBytes = 8 << 10 // tiny cache: nearly everything misses
	s := New(cfg)
	val := make([]byte, 1000)
	for i := 0; i < 2000; i++ {
		s.Insert(fmt.Sprintf("key%05d", i), val)
	}
	ssd := 0
	for i := 0; i < 100; i++ {
		ssd += s.Read(fmt.Sprintf("key%05d", i*17)).SSDReads
	}
	if ssd == 0 {
		t.Fatal("no SSD reads with a tiny block cache")
	}
	// Large cache: repeated reads of the same key stay in memory.
	s2 := New(testConfig())
	for i := 0; i < 2000; i++ {
		s2.Insert(fmt.Sprintf("key%05d", i), val)
	}
	s2.Read("key00100")
	if got := s2.Read("key00100").SSDReads; got != 0 {
		t.Fatalf("warm read did %d SSD reads", got)
	}
}

func TestWritesAreAsync(t *testing.T) {
	s := New(testConfig())
	r := s.Insert("k", make([]byte, 1000))
	if r.SSDReads != 0 {
		t.Fatal("insert should not block on the device")
	}
}

func TestPropertyMirrorsMap(t *testing.T) {
	type op struct {
		Key    uint8
		Kind   uint8 // 0 read, 1 write, 2 delete
		ValSeq uint8
	}
	cfg := testConfig()
	cfg.MemtableBytes = 2 << 10 // flush constantly to stress the LSM
	err := quick.Check(func(ops []op) bool {
		s := New(cfg)
		ref := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("k%03d", o.Key)
			switch o.Kind % 3 {
			case 1:
				v := fmt.Sprintf("v%d", o.ValSeq)
				s.Update(k, []byte(v))
				ref[k] = v
			case 2:
				s.Delete(k)
				delete(ref, k)
			default:
				r := s.Read(k)
				want, ok := ref[k]
				if r.Found != ok {
					return false
				}
				if ok && string(r.Value) != want {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLenCountsLiveKeys(t *testing.T) {
	s := New(testConfig())
	for i := 0; i < 300; i++ {
		s.Insert(fmt.Sprintf("k%03d", i), make([]byte, 500))
	}
	s.Delete("k000")
	s.Delete("k001")
	if got := s.Len(); got != 298 {
		t.Fatalf("Len = %d, want 298", got)
	}
}
