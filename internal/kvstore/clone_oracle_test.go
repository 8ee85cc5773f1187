package kvstore_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/holmes-colocation/holmes/internal/kvstore"
	"github.com/holmes-colocation/holmes/internal/kvstore/memcached"
	"github.com/holmes-colocation/holmes/internal/kvstore/redis"
	"github.com/holmes-colocation/holmes/internal/kvstore/rocksdb"
	"github.com/holmes-colocation/holmes/internal/kvstore/wiredtiger"
)

// cloneStores builds each store small enough that a few thousand
// operations reach its rarer paths; reached reports, from a store driven
// by TestCloneMatchesFreshLoad's stream, the counters that show it did.
var cloneStores = []struct {
	name    string
	build   func() kvstore.Store
	reached func(kvstore.Store) (counters string, ok bool)
}{
	{"redis", func() kvstore.Store {
		return redis.New(redis.Config{Seed: 3, LLCBytes: 64 << 10, SaveEveryWrites: 300})
	}, func(s kvstore.Store) (string, bool) {
		n := s.(*redis.Store).Saves()
		return fmt.Sprintf("saves %d", n), n > 0
	}},
	{"memcached", func() kvstore.Store {
		return memcached.New(memcached.Config{MemoryLimit: 5 << 20, LLCBytes: 64 << 10, HashPower: 4})
	}, func(s kvstore.Store) (string, bool) {
		n := s.(*memcached.Store).Evictions()
		return fmt.Sprintf("evictions %d", n), n > 0
	}},
	{"rocksdb", func() kvstore.Store {
		return rocksdb.New(rocksdb.Config{Seed: 3, LLCBytes: 64 << 10, MemtableBytes: 256 << 10,
			BlockCacheBytes: 1 << 20, LevelBaseBytes: 1 << 20, MaxTableBytes: 256 << 10})
	}, func(s kvstore.Store) (string, bool) {
		r := s.(*rocksdb.Store)
		return fmt.Sprintf("flushes %d, compactions %d", r.Flushes(), r.Compactions()), r.Compactions() > 0
	}},
	{"wiredtiger", func() kvstore.Store {
		return wiredtiger.New(wiredtiger.Config{Seed: 3, LLCBytes: 64 << 10, LeafPageBytes: 16 << 10,
			InnerFanout: 4, CacheBytes: 256 << 10, CheckpointEveryOps: 250})
	}, func(s kvstore.Store) (string, bool) {
		w := s.(*wiredtiger.Store)
		return fmt.Sprintf("eviction writes %d, checkpoints %d", w.EvictionWrites(), w.Checkpoints()),
			w.EvictionWrites() > 0 && w.Checkpoints() > 0
	}},
}

// cloneValues is the read-only pool every value is a window of.
var cloneValues = func() []byte {
	b := make([]byte, 8<<10)
	for i := range b {
		b[i] = 'a' + byte(i*7%26)
	}
	return b
}()

// cloneValue returns a value of 1 to 3 KB. memcached's items then fall
// into six slab classes of a few hundred chunks a page, so a 5 MB store
// fills some classes (evicting), leaves one without a page (rejecting),
// and moves items between classes on update.
func cloneValue(i, salt int) []byte {
	off := (i*131 + salt*17) % 4096
	n := 1000 + (i*37+salt*101)%2000
	return cloneValues[off : off+n : off+n]
}

func cloneKey(i int) string { return fmt.Sprintf("user%06d", i) }

// cloneOp is one operation of the mixed stream: Kind picks read, update,
// insert, scan or read-modify-write, Key a record, Arg a value salt or
// scan length. Reads, updates and scans pick a preloaded key or one past
// the preload; inserts pick an odd key, between preloaded ones or past
// them.
type cloneOp struct {
	Kind uint8
	Key  uint16
	Arg  uint8
}

// preloadClone loads records keys into a fresh store: the even ones,
// so that inserts of odd keys land between them.
func preloadClone(build func() kvstore.Store, records int) kvstore.Store {
	s := build()
	for i := 0; i < records; i++ {
		s.Insert(cloneKey(2*i), cloneValue(2*i, 0))
	}
	if b, ok := s.(kvstore.Backgrounder); ok {
		b.DrainBackground()
	}
	return s
}

// cloneStep is everything one operation lets a caller observe.
type cloneStep struct {
	Res kvstore.Result
	BG  []kvstore.BackgroundTask
	Len int
	Mem int64
}

// runClone drives s through ops and records every observation. Len is
// read every 32 operations and at the end (rocksdb's Len walks every
// table).
func runClone(s kvstore.Store, records int, ops []cloneOp) []cloneStep {
	out := make([]cloneStep, 0, len(ops))
	for i, op := range ops {
		key := 2 * (int(op.Key) % (records + records/4 + 1))
		var st cloneStep
		switch op.Kind % 5 {
		case 0:
			st.Res = s.Read(cloneKey(key))
		case 1:
			st.Res = s.Update(cloneKey(key), cloneValue(key, int(op.Arg)))
		case 2:
			k := 2*(int(op.Key)%(records+records/4+1)) + 1
			st.Res = s.Insert(cloneKey(k), cloneValue(k, int(op.Arg)))
		case 3:
			st.Res = s.Scan(cloneKey(key), 1+int(op.Arg)%40)
		case 4:
			r1 := s.Read(cloneKey(key))
			r2 := s.Update(cloneKey(key), cloneValue(key, int(op.Arg)+1))
			r1.Cost.Add(r2.Cost)
			r1.SSDReads += r2.SSDReads
			st.Res = r1
		}
		if b, ok := s.(kvstore.Backgrounder); ok {
			if bg := b.DrainBackground(); len(bg) > 0 {
				st.BG = bg
			}
		}
		if m, ok := s.(kvstore.MemoryReporter); ok {
			st.Mem = m.ApproxMemory()
		}
		if i%32 == 31 || i == len(ops)-1 {
			st.Len = s.Len()
		}
		out = append(out, st)
	}
	return out
}

// cloneMismatch runs the oracle for one store: a fresh load is the
// reference; a clone of a separate image, a second clone taken before
// the first ran, and finally the image itself must each observe exactly
// what the reference did. It returns "" or the first difference.
func cloneMismatch(build func() kvstore.Store, records int, ops []cloneOp) string {
	want := runClone(preloadClone(build, records), records, ops)
	image := preloadClone(build, records)
	first, second := image.Clone(), image.Clone()
	for _, c := range []struct {
		name string
		s    kvstore.Store
	}{{"clone", first}, {"second clone", second}, {"image", image}} {
		got := runClone(c.s, records, ops)
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				return fmt.Sprintf("%s, op %d %+v:\n got  %+v\n want %+v", c.name, i, ops[i], got[i], want[i])
			}
		}
	}
	return ""
}

// TestCloneMatchesFreshLoad drives a clone of a preloaded image and a
// freshly loaded store through one mixed operation stream and requires
// identical Results, background work, Len and ApproxMemory; then a
// second clone and the image itself, driven after it, must match too,
// so neither the image nor a clone sees another's writes.
func TestCloneMatchesFreshLoad(t *testing.T) {
	const records = 1500
	ops := make([]cloneOp, 4000)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range ops {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		ops[i] = cloneOp{Kind: uint8(x), Key: uint16(x >> 8), Arg: uint8(x >> 24)}
	}
	for _, st := range cloneStores {
		t.Run(st.name, func(t *testing.T) {
			s := preloadClone(st.build, records)
			runClone(s, records, ops)
			if counters, ok := st.reached(s); !ok {
				t.Fatalf("the stream misses a maintenance path: %s", counters)
			}
			if msg := cloneMismatch(st.build, records, ops); msg != "" {
				t.Fatal(msg)
			}
		})
	}
}

// FuzzCloneOracle runs the clone oracle over fuzzed operation streams
// (three bytes per operation) against every store.
func FuzzCloneOracle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 5, 9, 2, 0, 3, 3, 7, 30, 4, 2, 1})
	f.Add([]byte{1, 0, 0, 1, 0, 1, 2, 9, 9, 2, 9, 10, 0, 0, 0, 3, 0, 39})
	f.Fuzz(func(t *testing.T, data []byte) {
		const records = 200
		ops := make([]cloneOp, 0, len(data)/3)
		for i := 0; i+2 < len(data) && len(ops) < 2000; i += 3 {
			ops = append(ops, cloneOp{Kind: data[i], Key: uint16(data[i+1]) * 3, Arg: data[i+2]})
		}
		for _, st := range cloneStores {
			if msg := cloneMismatch(st.build, records, ops); msg != "" {
				t.Fatalf("%s: %s", st.name, msg)
			}
		}
	})
}
