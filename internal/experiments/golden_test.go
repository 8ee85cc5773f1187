package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/holmes-colocation/holmes/internal/stats"
	"github.com/holmes-colocation/holmes/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden run files under testdata/golden")

// g formats a float with the shortest exact representation, so a golden
// pins the value bit for bit.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func summaryText(s stats.Summary) string {
	return fmt.Sprintf("n=%d valid=%v mean=%s min=%s max=%s p50=%s p90=%s p95=%s p99=%s p999=%s",
		s.Count, s.Valid, g(s.Mean), g(s.Min), g(s.Max), g(s.P50), g(s.P90), g(s.P95), g(s.P99), g(s.P999))
}

func digest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// colocationGoldenText renders every field of a ColocationResult: the
// latency summary plus a digest of the full CDF, the utilisation and
// throughput deltas, the daemon's action counters and the memory
// figures; the VPI series and an attached telemetry set are digested.
func colocationGoldenText(r *ColocationResult, set *telemetry.Set) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "latency: %s\n", summaryText(r.Latency.Summarize()))
	var cdf strings.Builder
	for _, p := range r.Latency.CDF(200) {
		fmt.Fprintf(&cdf, "%s %s\n", g(p.Value), g(p.Fraction))
	}
	fmt.Fprintf(&b, "latency cdf sha256: %s\n", digest([]byte(cdf.String())))
	fmt.Fprintf(&b, "avg cpu util: %s\nlc util: %s\n", g(r.AvgCPUUtil), g(r.LCUtil))
	fmt.Fprintf(&b, "completed jobs: %d\ncompleted queries: %d\n", r.CompletedJobs, r.CompletedQueries)
	fmt.Fprintf(&b, "invocations: %d deallocations: %d reallocations: %d expansions: %d\n",
		r.Invocations, r.Deallocations, r.Reallocations, r.Expansions)
	fmt.Fprintf(&b, "daemon util: %s telemetry util: %s\n", g(r.DaemonUtil), g(r.TelemetryUtil))
	fmt.Fprintf(&b, "service mem: %d batch mem: %d\n", r.ServiceMemBytes, r.BatchMemBytes)
	if r.VPISeries.Len() > 0 {
		var pts strings.Builder
		for _, p := range r.VPISeries.Points {
			fmt.Fprintf(&pts, "%d %s\n", p.TimeNs, g(p.Value))
		}
		fmt.Fprintf(&b, "vpi series %q: %d points, sha256 %s\n",
			r.VPISeries.Name, r.VPISeries.Len(), digest([]byte(pts.String())))
	}
	if set != nil {
		var prom bytes.Buffer
		if err := telemetry.WritePrometheus(&prom, set.Registry); err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "telemetry metrics sha256: %s\n", digest(prom.Bytes()))
		var events strings.Builder
		for _, ev := range set.Tracer.Ring().Snapshot() {
			fmt.Fprintf(&events, "%+v\n", ev)
		}
		fmt.Fprintf(&b, "telemetry events: %d total, sha256 %s\n",
			set.Tracer.Ring().Total(), digest([]byte(events.String())))
		info := set.Info()
		keys := make([]string, 0, len(info))
		for k := range info {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "info %s=%s\n", k, info[k])
		}
	}
	return b.String(), nil
}

// checkGolden compares got with testdata/golden/<name>.txt, rewriting it
// first under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", "golden", name+".txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/experiments -run TestColocationGolden -update` to create)", err)
	}
	if got != string(want) {
		t.Fatalf("run drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestColocationGolden pins RunColocation's output across commits for
// Redis YCSB-A under each setting on a short window. The Holmes cases
// also pin the Fig. 13 VPI observer and a run with a telemetry set
// attached. A deliberate behaviour change regenerates the files with
// `go test ./internal/experiments -run TestColocationGolden -update` and
// says why in the change description.
func TestColocationGolden(t *testing.T) {
	skipHeavyUnderRace(t)
	cases := []struct {
		name      string
		setting   Setting
		vpi       bool
		telemetry bool
	}{
		{"colocation-redis-a-alone", Alone, false, false},
		{"colocation-redis-a-perfiso", PerfIso, false, false},
		{"colocation-redis-a-holmes", Holmes, false, false},
		{"colocation-redis-a-holmes-vpi-telemetry", Holmes, true, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultColocation("redis", "a", tc.setting)
			cfg.WarmupNs = 500_000_000
			cfg.DurationNs = 1_500_000_000
			var set *telemetry.Set
			if tc.vpi {
				cfg.VPISampleNs = 50_000_000
			}
			if tc.telemetry {
				set = telemetry.NewSet()
				cfg.Telemetry = set
			}
			r, err := RunColocation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := colocationGoldenText(r, set)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name, got)
		})
	}
}
