package lcservice

import (
	"testing"

	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/kvstore"
	"github.com/holmes-colocation/holmes/internal/kvstore/memcached"
	"github.com/holmes-colocation/holmes/internal/kvstore/redis"
	"github.com/holmes-colocation/holmes/internal/kvstore/rocksdb"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/ycsb"
)

func newEnv() (*machine.Machine, *kernel.Kernel) {
	cfg := machine.DefaultConfig()
	cfg.Topology = cpuid.Topology{Sockets: 1, Cores: 8}
	m := machine.New(cfg)
	return m, kernel.New(m)
}

func smallGen(w ycsb.Workload, records int64) *ycsb.Generator {
	cfg := ycsb.DefaultConfig(w)
	cfg.RecordCount = records
	cfg.FieldCount = 2
	cfg.FieldLength = 100
	return ycsb.NewGenerator(cfg)
}

func TestDefaultConfigFor(t *testing.T) {
	if DefaultConfigFor("redis").Workers != 1 {
		t.Fatal("redis must be single-threaded")
	}
	if DefaultConfigFor("memcached").Workers != 4 {
		t.Fatal("memcached workers")
	}
	if DefaultConfigFor("rocksdb").BackgroundWorkers == 0 {
		t.Fatal("rocksdb needs background workers")
	}
}

func TestServiceServesQueries(t *testing.T) {
	m, k := newEnv()
	svc := Launch(k, redis.New(redis.DefaultConfig()), DefaultConfigFor("redis"))
	gen := smallGen(ycsb.WorkloadA, 1000)
	svc.Load(gen)
	if svc.Store().Len() != 1000 {
		t.Fatalf("loaded %d", svc.Store().Len())
	}
	// Pin the worker and submit queries.
	for _, w := range svc.Workers() {
		_ = k.SetAffinity(w.TID, cpuid.MaskOf(0))
	}
	for i := 0; i < 100; i++ {
		svc.Submit(gen.Next(), m.Now())
		m.RunFor(100_000)
	}
	if svc.Completed() != 100 {
		t.Fatalf("completed %d of 100", svc.Completed())
	}
	sum := svc.Latencies().Summarize()
	if sum.Count != 100 || sum.Mean <= 0 {
		t.Fatalf("latency summary: %+v", sum)
	}
	// Uncontended in-memory reads are tens of microseconds at most.
	if sum.P99 > 2_000_000 {
		t.Fatalf("p99 = %v ns, implausibly slow", sum.P99)
	}
}

func TestLatencyIncludesQueueing(t *testing.T) {
	m, k := newEnv()
	svc := Launch(k, redis.New(redis.DefaultConfig()), Config{Workers: 1})
	gen := smallGen(ycsb.WorkloadA, 1000)
	svc.Load(gen)
	_ = k.SetAffinity(svc.Workers()[0].TID, cpuid.MaskOf(0))

	// Submit a large batch at once: later requests must queue.
	for i := 0; i < 200; i++ {
		svc.Submit(gen.Next(), m.Now())
	}
	m.RunFor(100_000_000)
	if svc.Completed() != 200 {
		t.Fatalf("completed %d", svc.Completed())
	}
	sum := svc.Latencies().Summarize()
	if sum.Max < sum.Min*3 {
		t.Fatalf("no queueing spread: min=%v max=%v", sum.Min, sum.Max)
	}
}

func TestMemcachedScansDropped(t *testing.T) {
	m, k := newEnv()
	svc := Launch(k, memcached.New(memcached.DefaultConfig()), Config{Workers: 1})
	gen := smallGen(ycsb.WorkloadE, 500)
	svc.Load(gen)
	_ = k.SetAffinity(svc.Workers()[0].TID, cpuid.MaskOf(0))
	for i := 0; i < 50; i++ {
		svc.Submit(ycsb.Op{Type: ycsb.OpScan, Key: ycsb.Key(1), ScanLen: 10}, m.Now())
	}
	m.RunFor(10_000_000)
	if svc.Unsupported() != 50 {
		t.Fatalf("unsupported = %d", svc.Unsupported())
	}
	if svc.Completed() != 0 {
		t.Fatal("unsupported scans should not complete")
	}
}

func TestBackgroundWorkRouted(t *testing.T) {
	m, k := newEnv()
	cfg := rocksdb.DefaultConfig()
	cfg.MemtableBytes = 32 << 10
	svc := Launch(k, rocksdb.New(cfg), Config{Workers: 2, BackgroundWorkers: 2})
	gen := smallGen(ycsb.WorkloadA, 100)
	svc.Load(gen)
	for _, w := range svc.Workers() {
		_ = k.SetAffinity(w.TID, cpuid.MaskOf(0, 1))
	}
	for _, b := range svc.BackgroundThreads() {
		_ = k.SetAffinity(b.TID, cpuid.MaskOf(2))
	}
	// Write-heavy load triggers flushes whose work lands on bg threads.
	for i := 0; i < 500; i++ {
		svc.Submit(ycsb.Op{Type: ycsb.OpInsert, Key: ycsb.Key(int64(1000 + i)), Value: make([]byte, 1000)}, m.Now())
		m.RunFor(50_000)
	}
	m.RunFor(500_000_000)
	var bgCycles float64
	for _, b := range svc.BackgroundThreads() {
		bgCycles += b.HW.ConsumedCycles
	}
	if bgCycles == 0 {
		t.Fatal("background threads did no work despite flushes")
	}
}

func TestClientBurstyTraffic(t *testing.T) {
	m, k := newEnv()
	svc := Launch(k, redis.New(redis.DefaultConfig()), Config{Workers: 1})
	gen := smallGen(ycsb.WorkloadB, 1000)
	svc.Load(gen)
	_ = k.SetAffinity(svc.Workers()[0].TID, cpuid.MaskOf(0))

	// Short bursts: 5-8 ms serving, 2-3 ms gaps, 50k RPS.
	tr := ycsb.NewTraffic(5e6, 8e6, 2e6, 3e6, 50_000, 11)
	c := NewClient(svc, gen, tr)
	c.Start()
	m.RunFor(50_000_000) // 50 ms: several burst/gap cycles
	if c.Bursts() < 3 {
		t.Fatalf("only %d bursts in 50 ms", c.Bursts())
	}
	if svc.Completed() < 500 {
		t.Fatalf("completed %d queries", svc.Completed())
	}
	c.Stop()
	done := svc.Completed()
	m.RunFor(50_000_000)
	// A few in-flight completions may drain, but no new arrivals.
	if svc.Completed() > done+50 {
		t.Fatalf("client kept injecting after Stop: %d -> %d", done, svc.Completed())
	}
}

func TestClientConstantTraffic(t *testing.T) {
	m, k := newEnv()
	svc := Launch(k, redis.New(redis.DefaultConfig()), Config{Workers: 1})
	gen := smallGen(ycsb.WorkloadB, 1000)
	svc.Load(gen)
	_ = k.SetAffinity(svc.Workers()[0].TID, cpuid.MaskOf(0))
	tr := ycsb.NewTraffic(1e9, 2e9, 1, 2, 20_000, 3)
	c := NewClient(svc, gen, tr)
	c.StartServing()
	if !c.Serving() {
		t.Fatal("not serving after StartServing")
	}
	m.RunFor(20_000_000)
	if svc.Completed() < 200 {
		t.Fatalf("constant traffic completed only %d", svc.Completed())
	}
}

func TestResetLatencies(t *testing.T) {
	m, k := newEnv()
	svc := Launch(k, redis.New(redis.DefaultConfig()), Config{Workers: 1})
	gen := smallGen(ycsb.WorkloadA, 100)
	svc.Load(gen)
	_ = k.SetAffinity(svc.Workers()[0].TID, cpuid.MaskOf(0))
	svc.Submit(gen.Next(), m.Now())
	m.RunFor(10_000_000)
	svc.ResetLatencies()
	if svc.Latencies().Count() != 0 {
		t.Fatal("reset failed")
	}
}

func TestWorkloadsCDFServed(t *testing.T) {
	// Workloads C (read-only), D (latest-skewed with inserts) and F
	// (read-modify-write) exercise the remaining op types end to end.
	for _, name := range []string{"c", "d", "f"} {
		wl, err := ycsb.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m, k := newEnv()
		svc := Launch(k, redis.New(redis.DefaultConfig()), Config{Workers: 1})
		gen := smallGen(wl, 500)
		svc.Load(gen)
		_ = k.SetAffinity(svc.Workers()[0].TID, cpuid.MaskOf(0))
		for i := 0; i < 200; i++ {
			svc.Submit(gen.Next(), m.Now())
			m.RunFor(50_000)
		}
		m.RunFor(50_000_000)
		if svc.Completed() != 200 {
			t.Fatalf("workload-%s completed %d of 200", name, svc.Completed())
		}
		if svc.Unsupported() != 0 {
			t.Fatalf("workload-%s hit unsupported ops", name)
		}
	}
}

func TestRMWCostsMoreThanRead(t *testing.T) {
	m, k := newEnv()
	svc := Launch(k, redis.New(redis.DefaultConfig()), Config{Workers: 1})
	gen := smallGen(ycsb.WorkloadA, 500)
	svc.Load(gen)
	_ = k.SetAffinity(svc.Workers()[0].TID, cpuid.MaskOf(0))

	key := ycsb.Key(1)
	val := make([]byte, 1000)
	svc.Submit(ycsb.Op{Type: ycsb.OpRead, Key: key}, m.Now())
	m.RunFor(10_000_000)
	readLat := svc.Latencies().Mean()
	svc.ResetLatencies()
	svc.Submit(ycsb.Op{Type: ycsb.OpReadModifyWrite, Key: key, Value: val}, m.Now())
	m.RunFor(10_000_000)
	rmwLat := svc.Latencies().Mean()
	if rmwLat <= readLat {
		t.Fatalf("RMW (%.0f ns) should cost more than read (%.0f ns)", rmwLat, readLat)
	}
}

// TestStoresNeverWriteValues pins the read-only value contract: record
// values are windows of ycsb's shared pool, so a store that wrote into a
// value it was handed would corrupt every generator's records. Preload
// each store, drive updates, read-modify-writes and inserts through it,
// and check every preloaded record still has its original bytes.
func TestStoresNeverWriteValues(t *testing.T) {
	const records = 2000
	small := rocksdb.DefaultConfig()
	small.MemtableBytes = 256 << 10 // flush and compact during the run
	stores := map[string]kvstore.Store{"rocksdb": rocksdb.New(small)}
	for _, name := range []string{"redis", "memcached", "wiredtiger"} {
		st, err := NewStore(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		stores[name] = st
	}
	for name, st := range stores {
		m, k := newEnv()
		svc := Launch(k, st, DefaultConfigFor(name))
		cfg := ycsb.DefaultConfig(ycsb.WorkloadA)
		cfg.RecordCount = records
		gen := ycsb.NewGenerator(cfg)
		want := make([][]byte, records)
		for i := range want {
			want[i] = append([]byte(nil), gen.Value(int64(i))...)
		}
		svc.Load(gen)
		for _, w := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadF, ycsb.WorkloadD} {
			wcfg := ycsb.DefaultConfig(w)
			wcfg.RecordCount = records
			ops := ycsb.NewGenerator(wcfg)
			for i := 0; i < 2000; i++ {
				svc.Submit(ops.Next(), m.Now())
			}
			m.RunFor(1_000_000)
		}
		for i, v := range want {
			if string(gen.Value(int64(i))) != string(v) {
				t.Fatalf("%s: record %d's value changed under the store", name, i)
			}
		}
	}
}
