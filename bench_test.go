package holmes_test

// One benchmark per table and figure of the paper's evaluation. Each
// iteration regenerates the experiment on a compressed measurement window
// and reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. cmd/holmes-bench prints the full rows
// and series; these benchmarks track the numbers that summarize each
// result's shape.

import (
	"sync"
	"testing"

	"github.com/holmes-colocation/holmes/internal/experiments"
	"github.com/holmes-colocation/holmes/internal/hpe"
)

// benchSuite shares the co-location matrix across the Fig. 7-12/Table 3
// benchmarks, exactly as the harness does.
var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

func sharedSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite = experiments.NewSuite(6_000_000_000, 1)
	})
	return suite
}

func BenchmarkFig2MemoryLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig2(300_000_000, 1)
		base := r.Cases[0].Summary.Mean
		sib := r.Cases[2].Summary.Mean
		b.ReportMetric(base, "alone-ns/block")
		b.ReportMetric(sib/base, "sibling-inflation-x")
	}
}

func BenchmarkFig3RedisColocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig3(1_500_000_000, 1)
		if err != nil {
			b.Fatal(err)
		}
		sep := r.Settings[experiments.Fig3CoSeparate]
		hyper := r.Settings[experiments.Fig3CoHyper]
		b.ReportMetric(hyper.Mean/sep.Mean, "cohyper-avg-x")
		b.ReportMetric(hyper.P99/sep.P99, "cohyper-p99-x")
	}
}

func BenchmarkTable1HPECorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunSweep(150_000_000, 1)
		for _, c := range r.Sweep.Correlations() {
			if c.Event == hpe.StallsMemAny {
				b.ReportMetric(c.Corr, "corr-0x14a3")
			}
			if c.Event == hpe.CyclesL3Miss {
				b.ReportMetric(c.Corr, "corr-0x02a3")
			}
		}
	}
}

func BenchmarkFig4Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunSweep(150_000_000, 1)
		pts := r.Sweep.MaxThread
		if len(pts) > 0 {
			b.ReportMetric(pts[len(pts)-1].MeanLatNs/pts[0].MeanLatNs, "latency-rise-x")
		}
	}
}

func BenchmarkFig5VPIEffectiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig5(800_000_000, 1, []string{"redis", "memcached"})
		if err != nil {
			b.Fatal(err)
		}
		var maxAvg, maxVPI float64
		for _, p := range r.Points {
			if p.AvgRel > maxAvg {
				maxAvg = p.AvgRel
			}
			if p.VPIRel > maxVPI {
				maxVPI = p.VPIRel
			}
		}
		b.ReportMetric(maxAvg, "max-latency-delta")
		b.ReportMetric(maxVPI, "max-vpi-delta")
	}
}

// benchLatencyFig reports the Holmes-vs-PerfIso reductions for one store
// under workload-a (the headline numbers of Figs. 7-10).
func benchLatencyFig(b *testing.B, store string) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		h, err := s.Get(store, "a", experiments.Holmes)
		if err != nil {
			b.Fatal(err)
		}
		p, err := s.Get(store, "a", experiments.PerfIso)
		if err != nil {
			b.Fatal(err)
		}
		hs, ps := h.Latency.Summarize(), p.Latency.Summarize()
		b.ReportMetric(100*(1-hs.Mean/ps.Mean), "avg-reduction-%")
		b.ReportMetric(100*(1-hs.P99/ps.P99), "p99-reduction-%")
	}
}

func BenchmarkFig7RedisLatency(b *testing.B)      { benchLatencyFig(b, "redis") }
func BenchmarkFig8RocksDBLatency(b *testing.B)    { benchLatencyFig(b, "rocksdb") }
func BenchmarkFig9WiredTigerLatency(b *testing.B) { benchLatencyFig(b, "wiredtiger") }
func BenchmarkFig10MemcachedLatency(b *testing.B) { benchLatencyFig(b, "memcached") }

func BenchmarkFig11SLOViolation(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		alone, err := s.Get("redis", "a", experiments.Alone)
		if err != nil {
			b.Fatal(err)
		}
		slo := alone.Latency.Percentile(90)
		h, _ := s.Get("redis", "a", experiments.Holmes)
		p, _ := s.Get("redis", "a", experiments.PerfIso)
		b.ReportMetric(100*h.Latency.FractionAbove(slo), "holmes-violation-%")
		b.ReportMetric(100*p.Latency.FractionAbove(slo), "perfiso-violation-%")
	}
}

func BenchmarkFig12CPUUtilization(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		h, err := s.Get("redis", "a", experiments.Holmes)
		if err != nil {
			b.Fatal(err)
		}
		p, _ := s.Get("redis", "a", experiments.PerfIso)
		a, _ := s.Get("redis", "a", experiments.Alone)
		b.ReportMetric(100*h.AvgCPUUtil, "holmes-util-%")
		b.ReportMetric(100*p.AvgCPUUtil, "perfiso-util-%")
		b.ReportMetric(100*a.AvgCPUUtil, "alone-util-%")
	}
}

func BenchmarkFig13VPITimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultColocation("rocksdb", "a", experiments.PerfIso)
		cfg.DurationNs = 4_000_000_000
		cfg.VPISampleNs = 50_000_000
		r, err := experiments.RunColocation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.VPISeries.Mean(), "perfiso-mean-vpi")
	}
}

func BenchmarkTable3Throughput(b *testing.B) {
	s := sharedSuite(b)
	for i := 0; i < b.N; i++ {
		h, err := s.Get("redis", "a", experiments.Holmes)
		if err != nil {
			b.Fatal(err)
		}
		p, _ := s.Get("redis", "a", experiments.PerfIso)
		b.ReportMetric(float64(h.CompletedJobs), "holmes-jobs")
		b.ReportMetric(float64(p.CompletedJobs), "perfiso-jobs")
	}
}

func BenchmarkFig14Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig14(3_000_000_000, 0, 1, []string{"redis"}, 1)
		if err != nil {
			b.Fatal(err)
		}
		var at40, at80 float64
		for _, p := range r.Points {
			if p.E == 40 {
				at40 = p.Avg
			}
			if p.E == 80 {
				at80 = p.Avg
			}
		}
		b.ReportMetric(at40, "E40-normalized-avg")
		b.ReportMetric(at80, "E80-normalized-avg")
	}
}

func BenchmarkTable4Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable4(1, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			switch row.Approach {
			case "Holmes":
				b.ReportMetric(float64(row.ConvergenceNs)/1e3, "holmes-us")
			case "Heracles":
				b.ReportMetric(float64(row.ConvergenceNs)/1e9, "heracles-s")
			}
		}
	}
}

func BenchmarkOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunOverhead(3_000_000_000, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.DaemonCPUFrac, "daemon-cpu-%")
	}
}
