package experiments

import (
	"fmt"

	"github.com/holmes-colocation/holmes/internal/telemetry"
	"github.com/holmes-colocation/holmes/internal/trace"
)

// OverheadResult holds the §6.6 measurements of Holmes itself.
type OverheadResult struct {
	// DaemonCPUFrac is the daemon's CPU usage as a fraction of one core,
	// telemetry recording included.
	DaemonCPUFrac float64
	// TelemetryCPUFrac is the share of DaemonCPUFrac modeled as telemetry
	// recording (metrics + decision spans); BaseCPUFrac is the rest —
	// the monitor/scheduler work proper.
	TelemetryCPUFrac float64
	BaseCPUFrac      float64
	// Invocations is the number of monitor/scheduler invocations.
	Invocations int64
	// StateBytes estimates the daemon's resident state.
	StateBytes int64
}

// RunOverhead measures the daemon's cost during a standard co-location
// run (Redis, workload-a) at DefaultColocation's warm-up. The run always
// carries a telemetry set — o.Telemetry, else a private one — so the
// daemon-vs-telemetry split is measured, not assumed.
func RunOverhead(o Options) (OverheadResult, error) {
	cfg := o.colocation("redis", "a", Holmes)
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewSet()
	}
	cfg.DurationNs = o.colocDuration()
	cfg.Seed = o.Seed
	r, err := RunColocation(cfg)
	if err != nil {
		return OverheadResult{}, err
	}
	// State estimate: per-logical-CPU counter groups and bookkeeping
	// (3 counters x 8 bytes x 2 snapshots per group), masks, maps, and
	// the ~2 MB of monitoring buffers the paper's C++ daemon maintains
	// (per-core ring buffers of samples at the 50-100 µs interval).
	const nLCPU = 32
	state := int64(nLCPU*(3*8*2+64) + 4096 + 2<<20)
	return OverheadResult{
		DaemonCPUFrac:    r.DaemonUtil,
		TelemetryCPUFrac: r.TelemetryUtil,
		BaseCPUFrac:      r.DaemonUtil - r.TelemetryUtil,
		Invocations:      r.Invocations,
		StateBytes:       state,
	}, nil
}

// Render prints the overhead summary.
func (r OverheadResult) Render() string {
	tb := trace.NewTable("Holmes overhead (§6.6)", "metric", "measured", "paper")
	tb.AddRow("daemon CPU usage", fmt.Sprintf("%.2f%%", 100*r.DaemonCPUFrac), "1.3% - 3%")
	tb.AddRow("  monitor+scheduler", fmt.Sprintf("%.2f%%", 100*r.BaseCPUFrac), "-")
	tb.AddRow("  telemetry recording", fmt.Sprintf("%.3f%%", 100*r.TelemetryCPUFrac), "-")
	tb.AddRow("invocations", fmt.Sprintf("%d", r.Invocations), "-")
	tb.AddRow("resident state", fmt.Sprintf("%.1f MB", float64(r.StateBytes)/(1<<20)), "~2 MB")
	return tb.String()
}
