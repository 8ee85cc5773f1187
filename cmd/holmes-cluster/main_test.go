package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/holmes-colocation/holmes/internal/cluster"
	"github.com/holmes-colocation/holmes/internal/telemetry"
)

// runCLI captures run's exit code and both streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative nodes", []string{"-nodes", "-3"}, "-nodes -3 must be positive"},
		{"negative cores", []string{"-cores", "-1"}, "-cores -1 must be positive"},
		{"negative duration", []string{"-duration", "-2"}, "-duration -2 must be positive"},
		{"negative evict-vpi", []string{"-evict-vpi", "-25"}, "-evict-vpi -25 must be positive"},
		{"negative hot-rounds", []string{"-hot-rounds", "-2"}, "-hot-rounds -2 must be positive"},
		{"zero parallel", []string{"-parallel", "0"}, "-parallel 0 must be at least 1"},
		{"bad lod", []string{"-lod", "adaptive"}, `-lod "adaptive" must be "full" or "auto"`},
		{"negative services", []string{"-services", "-1"}, "-services -1 must not be negative"},
		{"missing spec", []string{"-spec", "/does/not/exist.json"}, "no such file"},
		{"missing chaos spec", []string{"-chaos-spec", "/does/not/exist.json"}, "no such file"},
		{"negative storm", []string{"-storm", "-10"}, "-storm -10 must be positive"},
		{"negative deadline", []string{"-deadline-ms", "-5"}, "-deadline-ms -5 must be positive"},
		{"negative retries", []string{"-retries", "-2"}, "-retries -2 must be positive"},
		{"retries over cap", []string{"-retries", "99"}, "exceeds the per-attempt accounting cap"},
		{"negative retry budget", []string{"-retry-budget", "-0.5"}, "-retry-budget -0.5 must not be negative"},
		{"negative shed limit", []string{"-shed-limit", "-3"}, "-shed-limit -3 must not be negative"},
		{"storm with chaos", []string{"-storm", "1000", "-chaos"}, "scripts its own node crash"},
		{"storm with chaos spec", []string{"-storm", "1000", "-chaos-spec", "x.json"}, "scripts its own node crash"},
		{"storm with traffic", []string{"-storm", "1000", "-traffic", "1000"}, "brings its own topology"},
		{"storm with topology", []string{"-storm", "1000", "-topology", "x.json"}, "brings its own topology"},
		{"no-resilience vs overrides", []string{"-traffic", "1000", "-no-resilience", "-retries", "2"},
			"-no-resilience conflicts with"},
		{"resilience without topology", []string{"-deadline-ms", "50"},
			"resilience flags need a traffic topology"},
		{"no-resilience without topology", []string{"-no-resilience"},
			"resilience flags need a traffic topology"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(tc.args...)
			if code == 0 {
				t.Fatalf("run(%v) accepted invalid flags", tc.args)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr %q does not mention %q", stderr, tc.want)
			}
		})
	}
}

func TestUnknownFlagFails(t *testing.T) {
	code, _, stderr := runCLI("-scheduler", "vpi")
	if code != 2 {
		t.Fatalf("unknown flag exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "scheduler") {
		t.Fatalf("stderr %q does not name the bad flag", stderr)
	}
}

func TestBadChaosSpecJSONFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "faults.json")
	if err := os.WriteFile(path, []byte(`{"counters": {"drop_rate": 2.0}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI("-chaos-spec", path)
	if code == 0 {
		t.Fatal("run accepted an out-of-range fault schedule")
	}
	if !strings.Contains(stderr, "drop_rate") {
		t.Fatalf("stderr %q does not explain the bad field", stderr)
	}
}

// smallArgs keeps CLI runs fast: 3 nodes, 2 services, short windows.
func smallArgs(extra ...string) []string {
	return append([]string{
		"-nodes", "3", "-services", "2", "-batch-pods", "6",
		"-warmup", "0.2", "-duration", "0.6", "-parallel", "4",
	}, extra...)
}

func TestRunCleanCluster(t *testing.T) {
	code, stdout, stderr := runCLI(smallArgs()...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"vpi placement", "cluster utilization"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("output missing %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "chaos:") {
		t.Fatalf("fault-free run printed chaos stats:\n%s", stdout)
	}
}

func TestRunChaosFlag(t *testing.T) {
	code, stdout, stderr := runCLI(smallArgs("-chaos")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"chaos:", "recovery:"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("chaos output missing %q:\n%s", want, stdout)
		}
	}
}

func TestChaosSpecFileAndNoDegrade(t *testing.T) {
	path := filepath.Join(t.TempDir(), "faults.json")
	sched := `{"nodes": {"heartbeat_loss_rate": 0.1}}`
	if err := os.WriteFile(path, []byte(sched), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(smallArgs("-chaos-spec", path, "-no-degrade")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "heartbeats lost") {
		t.Fatalf("chaos-spec run shows no heartbeat loss:\n%s", stdout)
	}
	if !strings.Contains(stdout, "safe-mode entries 0") {
		t.Fatalf("-no-degrade run still reports safe-mode entries:\n%s", stdout)
	}
}

// TestScorePlacerAndLoDFlags runs a wider fleet under the scoring placer
// with LoD auto and checks the fidelity line reports fast-forwarded
// node-rounds, plus byte-identical output across -parallel values.
func TestScorePlacerAndLoDFlags(t *testing.T) {
	args := []string{"-nodes", "12", "-services", "2", "-batch-pods", "8",
		"-warmup", "0.2", "-duration", "0.6", "-placer", "score", "-lod", "auto"}
	code, stdout, stderr := runCLI(append(args, "-parallel", "8")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"score placement", "fidelity: lod=auto", "cluster utilization"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("output missing %q:\n%s", want, stdout)
		}
	}
	_, serial, _ := runCLI(append(args, "-parallel", "1")...)
	if serial != stdout {
		t.Fatalf("-lod auto output differs between -parallel 8 and 1:\n--- p8 ---\n%s\n--- p1 ---\n%s",
			stdout, serial)
	}
}

func TestDeterministicAcrossParallel(t *testing.T) {
	_, serial, _ := runCLI(smallArgs("-chaos", "-parallel", "1")...)
	_, par, _ := runCLI(smallArgs("-chaos", "-parallel", "8")...)
	if serial != par {
		t.Fatalf("output differs between -parallel 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, par)
	}
}

func TestTraceOutIncompatibleWithBothPlacers(t *testing.T) {
	code, _, stderr := runCLI(smallArgs("-placer", "both", "-trace-out", "t.json")...)
	if code == 0 {
		t.Fatal("run accepted -placer both with -trace-out")
	}
	if !strings.Contains(stderr, "single placement policy") {
		t.Fatalf("stderr %q does not explain the conflict", stderr)
	}
}

func TestObservabilityOutputs(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	flight := filepath.Join(dir, "flight.txt")
	code, stdout, stderr := runCLI(smallArgs(
		"-trace-out", trace, "-flight-out", flight, "-dashboard")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"fleet observability: cluster", "fleet/mean_vpi",
		"span timeline:", "burn-rate alerts"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, stdout)
		}
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateChromeTrace(data); err != nil {
		t.Fatalf("-trace-out file fails schema check: %v", err)
	}
	bundle, err := os.ReadFile(flight)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"==== FLIGHT RECORDER ====", "operator request",
		"==== END FLIGHT RECORDER ===="} {
		if !strings.Contains(string(bundle), want) {
			t.Fatalf("-flight-out bundle missing %q:\n%s", want, bundle)
		}
	}
	if !strings.Contains(stderr, "trace:") || !strings.Contains(stderr, "flight recorder:") {
		t.Fatalf("stderr missing output notices: %q", stderr)
	}
}

// TestTracingDoesNotChangeReport pins the CLI-level determinism contract:
// the rendered report is byte-identical with and without the tracing and
// dashboard flags (only the extra dashboard block differs).
func TestTracingDoesNotChangeReport(t *testing.T) {
	_, plain, _ := runCLI(smallArgs()...)
	trace := filepath.Join(t.TempDir(), "trace.json")
	code, traced, stderr := runCLI(smallArgs("-trace-out", trace)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if plain != traced {
		t.Fatalf("tracing changed the report:\n--- off ---\n%s\n--- on ---\n%s", plain, traced)
	}
}

func TestTrafficFlag(t *testing.T) {
	code, stdout, stderr := runCLI("-nodes", "4", "-traffic", "60000",
		"-warmup", "0.5", "-duration", "2", "-batch-pods", "0", "-dashboard")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"traffic plane: replicated services under open-loop load",
		"request accounting",
		"conserved",
		"-- autoscaler --",
		"frontend replicas",
	} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("traffic run missing %q:\n%s", want, stdout)
		}
	}
}

func TestTrafficFlagRejectsNegative(t *testing.T) {
	code, _, stderr := runCLI("-traffic", "-5")
	if code == 0 || !strings.Contains(stderr, "-traffic -5 must be positive") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestStormFlag(t *testing.T) {
	code, stdout, stderr := runCLI("-nodes", "5", "-storm", "40000",
		"-warmup", "0.5", "-duration", "2", "-batch-pods", "0", "-parallel", "4")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"frontend", "storm",
		"request-path resilience: deadlines, retries, breakers, shedding",
		"request accounting",
		"conserved",
		"chaos: 1 crashes",
	} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("storm run missing %q:\n%s", want, stdout)
		}
	}
}

func TestResilienceOverridesOnTraffic(t *testing.T) {
	// DefaultTopology ships without a resilience layer, so overrides must
	// insist on a deadline to build one from.
	args := []string{"-nodes", "3", "-traffic", "30000",
		"-warmup", "0.3", "-duration", "1", "-batch-pods", "0", "-parallel", "4"}
	code, _, stderr := runCLI(append(args, "-retries", "2")...)
	if code == 0 || !strings.Contains(stderr, "-deadline-ms is required") {
		t.Fatalf("override without deadline accepted: exit %d, stderr %q", code, stderr)
	}

	code, stdout, stderr := runCLI(append(args, "-deadline-ms", "50", "-retries", "2",
		"-retry-budget", "0.2", "-shed-limit", "64")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "request-path resilience") {
		t.Fatalf("override run renders no resilience table:\n%s", stdout)
	}

	// -no-resilience on a topology that has a layer strips it.
	code, stdout, stderr = runCLI("-nodes", "3", "-storm", "20000",
		"-warmup", "0.3", "-duration", "1", "-batch-pods", "0", "-parallel", "4",
		"-no-resilience")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if strings.Contains(stdout, "request-path resilience") {
		t.Fatalf("-no-resilience run still renders the resilience table:\n%s", stdout)
	}
}

func TestTopologyFileFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.json")
	doc := `{
		"services": [{
			"name": "api", "store": "memcached", "program": "day",
			"replicas": 2, "queue_cap": 128
		}],
		"programs": [{
			"name": "day", "users": 50000,
			"base_rps": 300, "peak_rps": 1500, "day_seconds": 2
		}]
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI("-nodes", "3", "-topology", path,
		"-warmup", "0.3", "-duration", "1.7", "-batch-pods", "0")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "api") || !strings.Contains(stdout, "conserved") {
		t.Fatalf("topology run missing service accounting:\n%s", stdout)
	}

	// A topology that fails validation is rejected with the field named.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"services": [], "programs": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = runCLI("-topology", bad)
	if code == 0 || !strings.Contains(stderr, "at least one replicated service") {
		t.Fatalf("bad topology accepted: exit %d, stderr %q", code, stderr)
	}
}

// TestNonConservedTrafficFails falsifies a real traffic run's accounting
// identity: the report still prints, and the exit status turns to 1.
func TestNonConservedTrafficFails(t *testing.T) {
	defer func(prev func(cluster.Spec, cluster.RunOptions) (*cluster.Result, error)) {
		runCluster = prev
	}(runCluster)
	runCluster = func(spec cluster.Spec, opt cluster.RunOptions) (*cluster.Result, error) {
		res, err := cluster.Run(spec, opt)
		if err == nil {
			res.Traffic.Conserved = false
		}
		return res, err
	}
	code, stdout, stderr := runCLI("-nodes", "3", "-traffic", "30000",
		"-warmup", "0.3", "-duration", "1", "-batch-pods", "0", "-parallel", "4")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "request accounting") {
		t.Fatalf("report not printed before failing:\n%s", stdout)
	}
	if !strings.Contains(stderr, "request accounting not conserved") {
		t.Fatalf("stderr %q does not explain the failure", stderr)
	}
}
