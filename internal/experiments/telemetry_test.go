package experiments

import (
	"strings"
	"testing"

	"github.com/holmes-colocation/holmes/internal/telemetry"
)

// TestOverheadTelemetrySplit checks the extended §6.6 reporting: the
// daemon-vs-telemetry split is measured, consistent, and rendered.
func TestOverheadTelemetrySplit(t *testing.T) {
	r, err := RunOverhead(Options{Seed: 7, Scale: 0.075}) // 0.6 s measured
	if err != nil {
		t.Fatal(err)
	}
	if r.Invocations == 0 {
		t.Fatal("no invocations recorded")
	}
	if r.TelemetryCPUFrac <= 0 {
		t.Fatal("telemetry share not measured")
	}
	if r.TelemetryCPUFrac >= r.DaemonCPUFrac {
		t.Fatalf("telemetry share %v >= daemon total %v", r.TelemetryCPUFrac, r.DaemonCPUFrac)
	}
	if got := r.BaseCPUFrac + r.TelemetryCPUFrac; got != r.DaemonCPUFrac {
		t.Fatalf("split does not add up: %v + %v != %v", r.BaseCPUFrac, r.TelemetryCPUFrac, r.DaemonCPUFrac)
	}
	// Telemetry must not push the daemon outside the paper's envelope.
	if r.DaemonCPUFrac > 0.06 {
		t.Fatalf("daemon CPU %.2f%% above the 3%% envelope (with slack)", 100*r.DaemonCPUFrac)
	}
	out := r.Render()
	for _, want := range []string{"1.3%", "telemetry recording", "monitor+scheduler"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestColocationTelemetryWiring checks that a run with a set attached
// populates daemon, kernel, and cgroupfs metrics plus decision spans.
func TestColocationTelemetryWiring(t *testing.T) {
	set := telemetry.NewSet()
	cfg := DefaultColocation("redis", "a", Holmes)
	cfg.WarmupNs = 200_000_000
	cfg.DurationNs = 600_000_000
	cfg.Telemetry = set
	r, err := RunColocation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.TelemetryUtil <= 0 || r.TelemetryUtil >= r.DaemonUtil {
		t.Fatalf("TelemetryUtil = %v (daemon %v)", r.TelemetryUtil, r.DaemonUtil)
	}
	names := map[string]bool{}
	for _, f := range set.Registry.Gather() {
		names[f.Name] = true
	}
	for _, want := range []string{
		"holmes_invocations_total",
		"holmes_reserved_cpus",
		"kernel_migrations_total",
		"cgroupfs_events_total",
	} {
		if !names[want] {
			t.Fatalf("metric %s missing; have %v", want, names)
		}
	}
	if set.Spans.Total() == 0 {
		t.Fatal("no decision spans recorded")
	}
}

// TestRegistryDaemonsRecordSpans pins that Options.Telemetry reaches every
// Holmes daemon a registry experiment starts: each id below — the ones
// with their own daemon runs, and table3 for the shared suite — records
// decision spans into the options' set at the 100 ms window floor.
func TestRegistryDaemonsRecordSpans(t *testing.T) {
	skipRegistryUnderRace(t)
	t.Parallel()
	for _, id := range []string{"fig13", "fig14", "table4", "ablations", "overhead", "table3"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			set := telemetry.NewSet()
			if _, err := RunResults(Options{Seed: 1, Scale: 0.001, Telemetry: set}, []string{id}); err != nil {
				t.Fatal(err)
			}
			if set.Spans.Total() == 0 {
				t.Fatalf("%s: no spans recorded with Options.Telemetry set", id)
			}
		})
	}
}
