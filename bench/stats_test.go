package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Expected values from Python's statistics.quantiles(data, n=4) and
	// statistics.median(data).
	for _, c := range []struct {
		data        []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 4, 7},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, med, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(med-c.med) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.data, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {99, 50}, {100, 90}, {800, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := percentile([]float64{4, 1, 3, 2}, 50); got != 2.5 {
		t.Errorf("percentile p50 = %v, want 2.5", got)
	}
}

func TestJudge(t *testing.T) {
	wall := metricDef{name: "wall_s", bound: 0.10, class: hostCost}
	rate := metricDef{name: "node_sim_s_per_s", higher: true, bound: 0.10, class: hostCost}
	p99 := metricDef{name: "lc_p99_us", class: simulated}
	st := func(vs ...float64) stat { return summarize("", vs) }
	for _, c := range []struct {
		name      string
		d         metricDef
		base, cur stat
		want      string
	}{
		{"within bound", wall, st(10, 10.1, 10.2), st(10.5, 10.6, 10.7), unchanged},
		{"slower past bound", wall, st(10, 10.1, 10.2), st(11.5, 11.6, 11.7), worse},
		{"faster past bound", wall, st(10, 10.1, 10.2), st(8, 8.1, 8.2), better},
		{"higher is better", rate, st(10, 10, 10), st(12, 12, 12), better},
		{"higher is better, lower reads worse", rate, st(10, 10, 10), st(8, 8, 8), worse},
		{"spread wider than bound", wall, st(8, 10, 12, 14), st(9, 11, 13, 15), unresolved},
		{"wide spread but every run better", wall, st(10, 12, 14, 16), st(5, 6, 7, 8), better},
		{"simulated identical", p99, st(120, 120), st(120, 120), unchanged},
		{"simulated moved at all", p99, st(120, 120), st(120.5, 120.5), worse},
		{"simulated improved", p99, st(120, 120), st(119, 119), better},
	} {
		if got := judge(c.d, c.base, c.cur); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareCountsWorseAndFlagsOutputChange(t *testing.T) {
	mk := func(wall float64, digest string) *results {
		return &results{Seed: 1, Workloads: []workloadResult{{
			Name:         "node-colocation",
			OutputSHA256: digest,
			Metrics: map[string]stat{
				"wall_s":    summarize("s", []float64{wall, wall, wall}),
				"lc_p99_us": summarize("sim-us", []float64{120, 120, 120}),
				"cpu.core":  summarize("%", []float64{5, 50, 90}),
			},
		}}}
	}
	var out bytes.Buffer
	if n := compare(mk(2, "a"), mk(3, "b"), &out); n != 1 {
		t.Fatalf("compare counted %d worse, want 1:\n%s", n, out.String())
	}
	text := out.String()
	for _, want := range []string{"wall_s", "worse", "lc_p99_us", "unchanged", "simulated output differs"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "cpu.core") {
		t.Errorf("compare judged a profile share:\n%s", text)
	}
}

func TestFoldTraces(t *testing.T) {
	const prof = `File: holmes-bench
Type: cpu
-----------+-------------------------------------------------------
      60ms   github.com/holmes-colocation/holmes/internal/ycsb.(*Generator).Value
             github.com/holmes-colocation/holmes/internal/lcservice.(*Service).Load
             main.nodeColocation
-----------+-------------------------------------------------------
      20ms   sort.Ints
             github.com/holmes-colocation/holmes/internal/machine.(*Machine).step (inline)
             github.com/holmes-colocation/holmes/internal/machine.(*Machine).RunUntil
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             github.com/holmes-colocation/holmes/internal/kvstore/redis.(*Store).Insert
-----------+-------------------------------------------------------
`
	got, err := foldTraces(strings.NewReader(prof))
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]float64{
		"cpu.ycsb": 60, "cpu.machine": 20, "cpu.runtime_gc": 10, "cpu.runtime_alloc": 10, "cpu.kvstore": 0,
		"cum.lcservice.Service.Load": 60, "cum.ycsb.Generator.Value": 60, "cum.machine.Machine.RunUntil": 20,
	} {
		if math.Abs(got[k]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], want)
		}
	}
}

func TestJoinTraceValue(t *testing.T) {
	got := strings.Join(joinTraceValue([]string{"--workload", "x", "--trace", "0", "-quick", "--seconds", "1"}), " ")
	if want := "--workload x --trace=0 -quick --seconds 1"; got != want {
		t.Fatalf("joinTraceValue = %q, want %q", got, want)
	}
}
