package ycsb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestWorkloadMixes(t *testing.T) {
	for _, w := range []Workload{WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadE, WorkloadF} {
		sum := w.ReadProp + w.UpdateProp + w.InsertProp + w.ScanProp + w.RMWProp
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s proportions sum to %v", w.Name, sum)
		}
	}
	if WorkloadA.ReadProp != 0.5 || WorkloadA.UpdateProp != 0.5 {
		t.Fatal("workload A must be 50/50 read/update")
	}
	if WorkloadB.ReadProp != 0.95 {
		t.Fatal("workload B must be 95% read")
	}
	if WorkloadE.ScanProp != 0.95 || WorkloadE.InsertProp != 0.05 {
		t.Fatal("workload E must be 95% scan / 5% insert")
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"a", "b", "c", "d", "e", "f"} {
		w, err := ByName(n)
		if err != nil || !strings.HasSuffix(w.Name, n) {
			t.Fatalf("ByName(%q) = %v, %v", n, w.Name, err)
		}
	}
	if _, err := ByName("z"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestKeyMatchesSprintf(t *testing.T) {
	for _, i := range []int64{0, 9, 10, 1e11, 1e12 - 1, 1e12, -1} {
		if got, want := Key(i), fmt.Sprintf("user%012d", i); got != want {
			t.Fatalf("Key(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestKeyFormat(t *testing.T) {
	if got := Key(42); got != "user000000000042" {
		t.Fatalf("Key = %q", got)
	}
	// Keys are sortable by index.
	if !(Key(9) < Key(10) && Key(99) < Key(100)) {
		t.Fatal("keys not order-preserving")
	}
}

func TestGeneratorMixConvergence(t *testing.T) {
	cfg := DefaultConfig(WorkloadA)
	cfg.RecordCount = 1000
	g := NewGenerator(cfg)
	counts := map[OpType]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[g.Next().Type]++
	}
	readFrac := float64(counts[OpRead]) / n
	if readFrac < 0.47 || readFrac > 0.53 {
		t.Fatalf("workload A read fraction = %v", readFrac)
	}
	if counts[OpScan] != 0 || counts[OpInsert] != 0 {
		t.Fatal("workload A produced scans or inserts")
	}
}

func TestWorkloadEScans(t *testing.T) {
	cfg := DefaultConfig(WorkloadE)
	cfg.RecordCount = 1000
	g := NewGenerator(cfg)
	scans, inserts := 0, 0
	for i := 0; i < 20000; i++ {
		op := g.Next()
		switch op.Type {
		case OpScan:
			scans++
			if op.ScanLen < 1 || op.ScanLen > 100 {
				t.Fatalf("scan length %d out of range", op.ScanLen)
			}
		case OpInsert:
			inserts++
			if op.Value == nil {
				t.Fatal("insert without value")
			}
		default:
			t.Fatalf("unexpected op %v in workload E", op.Type)
		}
	}
	frac := float64(scans) / float64(scans+inserts)
	if frac < 0.92 || frac > 0.98 {
		t.Fatalf("scan fraction = %v", frac)
	}
}

func TestInsertsGrowKeySpace(t *testing.T) {
	cfg := DefaultConfig(WorkloadD)
	cfg.RecordCount = 100
	g := NewGenerator(cfg)
	before := g.RecordCount()
	inserts := 0
	for i := 0; i < 5000; i++ {
		if g.Next().Type == OpInsert {
			inserts++
		}
	}
	if g.RecordCount() != before+int64(inserts) {
		t.Fatalf("record count %d after %d inserts from %d", g.RecordCount(), inserts, before)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	mk := func() []Op {
		cfg := DefaultConfig(WorkloadA)
		cfg.RecordCount = 500
		g := NewGenerator(cfg)
		ops := make([]Op, 100)
		for i := range ops {
			ops[i] = g.Next()
		}
		return ops
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i].Type != b[i].Type || a[i].Key != b[i].Key {
			t.Fatalf("nondeterministic at op %d", i)
		}
	}
}

func TestValueDeterministicAndSized(t *testing.T) {
	cfg := DefaultConfig(WorkloadA)
	cfg.RecordCount = 10
	g := NewGenerator(cfg)
	v1 := g.Value(5)
	v2 := g.Value(5)
	if string(v1) != string(v2) {
		t.Fatal("values not deterministic")
	}
	if len(v1) != 1000 {
		t.Fatalf("value size = %d, want 1000", len(v1))
	}
	if string(g.Value(6)) == string(v1) {
		t.Fatal("different records produced identical values")
	}

	// Values are read-only windows of a shared pool: capacity stops at
	// the length, so an append copies instead of writing into the pool.
	if cap(v1) != len(v1) {
		t.Fatalf("cap = %d, want len %d", cap(v1), len(v1))
	}
	before := string(g.Value(6))
	grown := append(v1, "zzzzzzzz"...)
	grown[0] = '!'
	if string(g.Value(5)) != string(v2) || string(g.Value(6)) != before {
		t.Fatal("append to a value wrote into the pool")
	}

	for i := int64(0); i < 50_000; i++ {
		if string(g.Value(i)) == string(g.Value(i+1)) {
			t.Fatalf("records %d and %d share a window", i, i+1)
		}
	}

	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 1
	if string(NewGenerator(cfg2).Value(5)) == string(v1) {
		t.Fatal("seed does not move the value")
	}

	t.Run("size bound", func(t *testing.T) {
		big := cfg
		big.FieldCount, big.FieldLength = 1, maxValueLen
		if v := NewGenerator(big).Value(3); len(v) != maxValueLen {
			t.Fatalf("largest record has %d bytes", len(v))
		}
		big.FieldCount = 2
		defer func() {
			if recover() == nil {
				t.Fatal("record larger than a pool window accepted")
			}
		}()
		NewGenerator(big)
	})

	t.Run("concurrent first use", func(t *testing.T) {
		// A fresh once, so the pool is built here whatever ran before.
		saved := letterPool
		defer func() { letterPool = saved }()
		letterPool = sync.OnceValue(buildLetterPool)

		const workers = 8
		vals := make([][]byte, workers)
		var wg sync.WaitGroup
		for w := range vals {
			wg.Add(1)
			go func() {
				defer wg.Done()
				vals[w] = NewGenerator(cfg).Value(12345)
			}()
		}
		wg.Wait()
		want := NewGenerator(cfg).Value(12345)
		for w, v := range vals {
			if string(v) != string(want) {
				t.Fatalf("goroutine %d saw different bytes", w)
			}
		}
		letterPool = saved
		if string(NewGenerator(cfg).Value(12345)) != string(want) {
			t.Fatal("rebuilt pool differs from the first")
		}
	})
}

func TestValueAllocatesNothing(t *testing.T) {
	g := NewGenerator(DefaultConfig(WorkloadA))
	i := int64(0)
	if n := testing.AllocsPerRun(100, func() { _ = g.Value(i); i++ }); n != 0 {
		t.Fatalf("Value allocates %v times", n)
	}
}

func TestLoadOps(t *testing.T) {
	cfg := DefaultConfig(WorkloadA)
	cfg.RecordCount = 50
	g := NewGenerator(cfg)
	n := 0
	prev := ""
	g.LoadOps(func(key string, value []byte) {
		if key <= prev {
			t.Fatal("load keys out of order")
		}
		if len(value) != 1000 {
			t.Fatal("load value size")
		}
		prev = key
		n++
	})
	if n != 50 {
		t.Fatalf("loaded %d records", n)
	}
}

func TestZipfianSkewOnKeys(t *testing.T) {
	cfg := DefaultConfig(WorkloadC)
	cfg.RecordCount = 10000
	g := NewGenerator(cfg)
	freq := map[string]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		freq[g.Next().Key]++
	}
	// A zipfian workload concentrates: the top key should be much hotter
	// than uniform (n / recordCount = 5).
	maxFreq := 0
	for _, c := range freq {
		if c > maxFreq {
			maxFreq = c
		}
	}
	if maxFreq < 100 {
		t.Fatalf("hottest key hit %d times; zipfian skew missing", maxFreq)
	}
}

func TestLatestDistributionPrefersNew(t *testing.T) {
	cfg := DefaultConfig(WorkloadD)
	cfg.RecordCount = 10000
	g := NewGenerator(cfg)
	recent := 0
	reads := 0
	for i := 0; i < 20000; i++ {
		op := g.Next()
		if op.Type != OpRead {
			continue
		}
		reads++
		if op.Key >= Key(g.RecordCount()-1000) {
			recent++
		}
	}
	if float64(recent)/float64(reads) < 0.4 {
		t.Fatalf("latest distribution: only %d/%d reads in newest 10%%", recent, reads)
	}
}

func TestTrafficRanges(t *testing.T) {
	tr := NewTraffic(60e9, 90e9, 5e9, 10e9, 1000, 7)
	for i := 0; i < 1000; i++ {
		b := tr.NextBurst()
		if b < 60e9 || b > 90e9 {
			t.Fatalf("burst %d out of range", b)
		}
		g := tr.NextGap()
		if g < 5e9 || g > 10e9 {
			t.Fatalf("gap %d out of range", g)
		}
	}
}

func TestTrafficInterArrivalMean(t *testing.T) {
	tr := NewTraffic(60e9, 90e9, 5e9, 10e9, 10000, 7)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += float64(tr.NextInterArrival())
	}
	mean := sum / n
	want := 1e9 / 10000.0
	if mean < want*0.95 || mean > want*1.05 {
		t.Fatalf("inter-arrival mean %v, want ~%v", mean, want)
	}
}

func TestTrafficValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTraffic(0, 0, 0, 0, 0, 1)
}

func TestOpTypeString(t *testing.T) {
	for _, o := range []OpType{OpRead, OpUpdate, OpInsert, OpScan, OpReadModifyWrite, OpType(99)} {
		if o.String() == "" {
			t.Fatal("empty op name")
		}
	}
}
