package experiments

import (
	"sync"
	"testing"

	"github.com/holmes-colocation/holmes/internal/telemetry"
)

// skipHeavyUnderRace skips tests whose cost is dominated by long
// single-goroutine simulation runs: the race detector slows them ~10x
// while their concurrency is already covered by the cheap tests below.
func skipHeavyUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("heavy serial simulation; concurrency covered by the suite/telemetry race tests")
	}
}

// TestRunIDsRepeatable pins the weaker (but necessary) half of the
// contract: the same Options produce the same bytes run-to-run.
func TestRunIDsRepeatable(t *testing.T) {
	skipHeavyUnderRace(t)
	t.Parallel()
	o := Options{Seed: 3, Scale: 0.05, Parallel: 4}
	ids := []string{"fig13", "table4"}
	a, err := RunIDs(o, ids)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunIDs(o, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if a[i] != b[i] {
			t.Errorf("%s: two identical invocations rendered different bytes", id)
		}
	}
}

// TestRunIDsUnknownID rejects bad ids before running anything.
func TestRunIDsUnknownID(t *testing.T) {
	if _, err := RunIDs(Options{Seed: 1}, []string{"fig2", "nope"}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestSuiteConcurrentGet hammers one suite from many goroutines — the
// singleflight must coalesce every duplicate onto a single run and hand
// all callers the same result pointer. Small windows keep this fast
// enough to run under -race, which is where it earns its keep.
func TestSuiteConcurrentGet(t *testing.T) {
	s := NewSuite(150_000_000, 11)
	s.WarmupNs = 50_000_000
	const goroutines = 8
	results := make([]*ColocationResult, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := s.Get("redis", "a", Alone)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}()
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent Gets returned distinct results; singleflight failed")
		}
	}
}

// TestSuitePrefetchParallel warms a two-store slice of the matrix with a
// parallel worker pool, then checks the cached results match a serial
// suite with the same seed — combination by combination.
func TestSuitePrefetchParallel(t *testing.T) {
	skipHeavyUnderRace(t)
	t.Parallel()
	mk := func(workers int) *Suite {
		s := NewSuite(150_000_000, 5)
		s.WarmupNs = 50_000_000
		s.Workers = workers
		return s
	}
	serial, par := mk(1), mk(8)
	if err := serial.Prefetch("redis"); err != nil {
		t.Fatal(err)
	}
	if err := par.Prefetch("redis"); err != nil {
		t.Fatal(err)
	}
	for _, wl := range WorkloadsFor("redis") {
		for _, set := range Settings() {
			a, _ := serial.Get("redis", wl, set)
			b, _ := par.Get("redis", wl, set)
			if a.Latency.Summarize() != b.Latency.Summarize() {
				t.Fatalf("redis/%s/%s: parallel prefetch diverged from serial", wl, set)
			}
		}
	}
}

// TestSuiteKeyNoCollision guards the cache-key fix: with the old joined
// string key, ("ab", "c") and ("a", "bc") collided and the second lookup
// silently returned the first combination's result. The struct key keeps
// every adjacent-field spelling distinct.
func TestSuiteKeyNoCollision(t *testing.T) {
	a := suiteKey{Store: "ab", Workload: "c", Setting: Alone}
	b := suiteKey{Store: "a", Workload: "bc", Setting: Alone}
	if a == b {
		t.Fatal("suiteKey collides across field boundaries")
	}
	c := suiteKey{Store: "a", Workload: "b", Setting: Setting("calone")}
	d := suiteKey{Store: "a", Workload: "bc", Setting: Alone}
	if c == d {
		t.Fatal("suiteKey collides between workload and setting")
	}
}

// TestConcurrentRunsSharedTelemetry runs two simulations concurrently
// against one telemetry.Set — the holmes-bench shape when -parallel > 1
// and -trace-out are combined. Run under -race this proves the
// registry/span-recorder attachment path is safe for concurrent runs.
func TestConcurrentRunsSharedTelemetry(t *testing.T) {
	set := telemetry.NewSet()
	var wg sync.WaitGroup
	for _, store := range []string{"redis", "memcached"} {
		store := store
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := DefaultColocation(store, "a", Holmes)
			cfg.WarmupNs = 50_000_000
			cfg.DurationNs = 150_000_000
			cfg.Telemetry = set
			if _, err := RunColocation(cfg); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if set.Spans.Total() == 0 {
		t.Fatal("no decision spans recorded from concurrent runs")
	}
	if len(set.Registry.Gather()) == 0 {
		t.Fatal("no metrics gathered from concurrent runs")
	}
}
