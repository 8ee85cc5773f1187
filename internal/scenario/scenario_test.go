package scenario

import (
	"os"
	"strings"
	"testing"

	"github.com/holmes-colocation/holmes/internal/machine"
)

func minimalSpec() Spec {
	return Spec{
		Name:            "test",
		Scheduler:       "holmes",
		Services:        []ServiceSpec{{Store: "redis", Workload: "a", RPS: 8000}},
		Batch:           &BatchSpec{Continuous: true},
		WarmupSeconds:   0.5,
		DurationSeconds: 2,
		Seed:            1,
	}
}

func TestLoadValidJSON(t *testing.T) {
	doc := `{
		"name": "two-services",
		"machine": {"cores": 16},
		"scheduler": "holmes",
		"holmes": {"e": 40, "interval_us": 100},
		"services": [
			{"store": "redis", "workload": "a", "rps": 8000},
			{"store": "memcached", "workload": "b", "rps": 20000}
		],
		"batch": {"continuous": true, "concurrent_jobs": 3},
		"warmup_seconds": 1,
		"duration_seconds": 5,
		"seed": 7
	}`
	spec, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Services) != 2 || spec.Holmes.E != 40 {
		t.Fatalf("parsed: %+v", spec)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	doc := `{"services": [{"store":"redis","rps":1}], "duration_seconds": 1, "bogus": true}`
	if _, err := Load(strings.NewReader(doc)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string // substring the error message must carry
	}{
		{"empty services", func(s *Spec) { s.Services = nil }, "at least one service"},
		{"unknown store", func(s *Spec) { s.Services[0].Store = "cassandra" }, `unknown store "cassandra"`},
		{"unknown workload", func(s *Spec) { s.Services[0].Workload = "z" }, "z"},
		{"zero rps", func(s *Spec) { s.Services[0].RPS = 0 }, "positive rps"},
		{"unknown scheduler", func(s *Spec) { s.Scheduler = "bogus" }, `unknown scheduler "bogus"`},
		{"zero duration", func(s *Spec) { s.DurationSeconds = 0 }, "duration_seconds must be positive"},
		{"negative duration", func(s *Spec) { s.DurationSeconds = -3 }, "duration_seconds must be positive"},
		{"cores out of range", func(s *Spec) { s.Machine.Cores = 1000 }, "cores 1000 out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := minimalSpec()
			tc.mutate(&spec)
			err := spec.Validate()
			if err == nil {
				t.Fatalf("accepted: %+v", spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateHolmesSpec pins the daemon overrides' range: zero means the
// default, a negative value is rejected rather than silently replaced by
// the default.
func TestValidateHolmesSpec(t *testing.T) {
	cases := []struct {
		name string
		h    HolmesSpec
		ok   bool
	}{
		{"all zero means defaults", HolmesSpec{}, true},
		{"positive overrides", HolmesSpec{E: 60, IntervalUs: 50, QuietSeconds: 0.2, ReservedCPUs: 2}, true},
		{"negative e", HolmesSpec{E: -5}, false},
		{"negative interval", HolmesSpec{IntervalUs: -100}, false},
		{"negative quiet period", HolmesSpec{QuietSeconds: -0.5}, false},
		{"negative reserved cpus", HolmesSpec{ReservedCPUs: -1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := minimalSpec()
			spec.Holmes = &tc.h
			err := spec.Validate()
			if tc.ok && err != nil {
				t.Fatalf("rejected %+v: %v", tc.h, err)
			}
			if !tc.ok && (err == nil || !strings.Contains(err.Error(), "must not be negative")) {
				t.Fatalf("%+v: want a must-not-be-negative error, got %v", tc.h, err)
			}
		})
	}
	doc := `{"scheduler": "holmes", "holmes": {"e": -5}, "services": [{"store":"redis","rps":1}], "duration_seconds": 1}`
	if _, err := Load(strings.NewReader(doc)); err == nil {
		t.Fatal(`Load accepted "e": -5`)
	}
}

// TestLoadReportsValidationErrors pins the parse path: Load must surface
// Validate's message, so a bad JSON spec fails with a usable diagnostic.
func TestLoadReportsValidationErrors(t *testing.T) {
	doc := `{"scheduler": "rr", "services": [{"store":"redis","rps":1}], "duration_seconds": 1}`
	_, err := Load(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), `unknown scheduler "rr"`) {
		t.Fatalf("want unknown-scheduler error, got %v", err)
	}
}

func TestRunSingleService(t *testing.T) {
	rep, err := Run(minimalSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Services) != 1 {
		t.Fatalf("services = %d", len(rep.Services))
	}
	s := rep.Services[0]
	if s.Queries == 0 || s.Summary.Mean <= 0 {
		t.Fatalf("no queries served: %+v", s)
	}
	// The query count and the latency summary cover the same measured
	// window: warm-up completions count in neither.
	if s.Queries != int64(s.Summary.Count) {
		t.Fatalf("queries %d != measured latencies %d", s.Queries, s.Summary.Count)
	}
	if rep.CompletedJobs == 0 {
		t.Fatal("no batch jobs completed")
	}
	if rep.AvgCPUUtil < 0.3 {
		t.Fatalf("utilization %.2f too low for co-location", rep.AvgCPUUtil)
	}
	out := rep.Render()
	if !strings.Contains(out, "redis") || !strings.Contains(out, "holmes:") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestRunTwoServicesShareReservedPool(t *testing.T) {
	spec := minimalSpec()
	spec.Services = append(spec.Services,
		ServiceSpec{Store: "memcached", Workload: "b", RPS: 15000})
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Services) != 2 {
		t.Fatalf("services = %d", len(rep.Services))
	}
	for _, s := range rep.Services {
		if s.Queries == 0 {
			t.Fatalf("service %s served nothing", s.Name)
		}
		// Multi-tenant latency still in the tens-of-microseconds regime.
		if s.Summary.Mean > 5e6 {
			t.Fatalf("service %s mean %.0f implausible", s.Name, s.Summary.Mean)
		}
	}
}

func TestRunPerfIsoAndNone(t *testing.T) {
	for _, sched := range []string{"perfiso", "none", ""} {
		spec := minimalSpec()
		spec.Scheduler = sched
		rep, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if rep.Services[0].Queries == 0 {
			t.Fatalf("%s: no queries", sched)
		}
		if rep.Deallocations != 0 {
			t.Fatalf("%s: holmes stats leaked", sched)
		}
	}
}

func TestRunBurstyTraffic(t *testing.T) {
	spec := minimalSpec()
	spec.Services[0].BurstSeconds = [2]float64{0.5, 0.8}
	spec.Services[0].GapSeconds = [2]float64{0.1, 0.2}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Services[0].Queries == 0 {
		t.Fatal("bursty traffic served nothing")
	}
}

func TestRunCustomBatchKinds(t *testing.T) {
	spec := minimalSpec()
	spec.Batch.Kinds = []string{"sort", "pagerank"}
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	spec.Batch.Kinds = []string{"nonsense"}
	if _, err := Run(spec); err == nil {
		t.Fatal("unknown batch kind accepted")
	}
}

func TestRunUsageTriggerMetric(t *testing.T) {
	spec := minimalSpec()
	spec.Holmes = &HolmesSpec{TriggerMetric: "usage"}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Services[0].Queries == 0 {
		t.Fatal("usage trigger scenario served nothing")
	}
}

func TestOversizedReservationRejected(t *testing.T) {
	spec := minimalSpec()
	spec.Machine.Cores = 2
	spec.Holmes = &HolmesSpec{ReservedCPUs: 3}
	if _, err := Run(spec); err == nil {
		t.Fatal("reservation larger than cores accepted")
	}
}

func TestLoadTestdataFile(t *testing.T) {
	f, err := os.Open("testdata/two-tenant.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name == "" || len(spec.Services) != 2 {
		t.Fatalf("parsed testdata: %+v", spec)
	}
	// The shipped example must actually run (shortened).
	spec.DurationSeconds = 1.5
	spec.WarmupSeconds = 0.5
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Services {
		if s.Queries == 0 {
			t.Fatalf("example scenario: %s served nothing", s.Name)
		}
	}
}

func TestRunStaticScheduler(t *testing.T) {
	run := func(sched string) *Report {
		spec := minimalSpec()
		spec.Scheduler = sched
		spec.DurationSeconds = 4
		rep, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Services[0].Queries == 0 {
			t.Fatalf("%s scenario served nothing", sched)
		}
		return rep
	}
	static := run("static")
	holmes := run("holmes")
	// Static wastes the LC siblings permanently: utilization and batch
	// throughput trail a Holmes run of the same mix (§2.2's motivation
	// against static allocation).
	if static.AvgCPUUtil >= holmes.AvgCPUUtil {
		t.Fatalf("static util %.3f should trail holmes %.3f (wasted siblings)",
			static.AvgCPUUtil, holmes.AvgCPUUtil)
	}
	if static.CompletedJobs > holmes.CompletedJobs {
		t.Fatalf("static jobs %d should not exceed holmes %d",
			static.CompletedJobs, holmes.CompletedJobs)
	}
}

// TestZeroSeedMeansDefault pins the JSON surface's reading of seed 0:
// the machine's default seed, not a literal zero.
func TestZeroSeedMeansDefault(t *testing.T) {
	render := func(seed uint64) string {
		spec := minimalSpec()
		spec.DurationSeconds = 0.5
		spec.Seed = seed
		rep, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Render()
	}
	if zero, def := render(0), render(machine.DefaultConfig().Seed); zero != def {
		t.Fatalf("seed 0 rendered differently from the default seed:\n%s\nvs\n%s", zero, def)
	}
}
