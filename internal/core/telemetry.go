package core

import (
	"github.com/holmes-colocation/holmes/internal/telemetry"
)

// Modeled cost of the telemetry record path, in core cycles. At 2 GHz a
// single atomic record op (counter, gauge or histogram) is on the order of
// a dozen cycles; a span op is a ring slot store plus an ID assignment
// under a mutex, a few times pricier. These cycles are pushed onto the
// daemon process each tick so §6.6's overhead split is visible in
// simulated CPU time, not just wall-clock intuition.
const (
	telemetryCyclesPerRecord = 12
	telemetryCyclesPerSpan   = 60
)

// daemonTelemetry carries the daemon's pre-resolved metric handles plus
// the per-tick op counts used to charge recording cost to the daemon
// process. When telemetry is disabled every handle is nil and every
// record method no-ops, so call sites stay unconditional.
type daemonTelemetry struct {
	set *telemetry.Set
	// rec receives causal decision-chain spans; node is stamped on each.
	// Span cost accounting is keyed off set, not rec, so attaching or
	// detaching a recorder never perturbs the simulation (the determinism
	// contract the cluster tests pin).
	rec  *telemetry.SpanRecorder
	node int

	invocations     *telemetry.Counter
	deallocations   *telemetry.Counter
	reallocations   *telemetry.Counter
	expansions      *telemetry.Counter
	batchFound      *telemetry.Counter
	safeModeEntries *telemetry.Counter
	safeModeExits   *telemetry.Counter
	rescans         *telemetry.Counter
	rescanRepairsC  *telemetry.Counter
	safeModeG       *telemetry.Gauge
	reservedCPUs    *telemetry.Gauge
	batchCPUs       *telemetry.Gauge
	containers      *telemetry.Gauge
	lcServices      *telemetry.Gauge
	lcVPI           *telemetry.Histogram

	// Cost accounting for the current tick, drained by drainCycles.
	recordOps int64
	spanOps   int64
}

// resolve looks up every handle once, at Start. Registration may lock and
// allocate; the per-tick record path then never does either.
func (dt *daemonTelemetry) resolve(set *telemetry.Set) {
	if set == nil || set.Registry == nil {
		return
	}
	dt.set = set
	r := set.Registry
	dt.invocations = r.Counter("holmes_invocations_total", "monitor+scheduler invocations")
	dt.deallocations = r.Counter("holmes_deallocations_total", "sibling evictions (VPI >= E)")
	dt.reallocations = r.Counter("holmes_reallocations_total", "siblings re-offered after quiet period S")
	dt.expansions = r.Counter("holmes_expansions_total", "reserved-pool expansions (usage > T)")
	dt.batchFound = r.Counter("holmes_batch_discovered_total", "batch containers discovered via cgroupfs")
	dt.safeModeEntries = r.Counter("holmes_safe_mode_entries_total", "watchdog fallbacks to the static partition")
	dt.safeModeExits = r.Counter("holmes_safe_mode_exits_total", "safe-mode recoveries after a quiet period")
	dt.rescans = r.Counter("holmes_rescans_total", "cgroupfs reconciliation scans")
	dt.rescanRepairsC = r.Counter("holmes_rescan_repairs_total", "missed cgroup events repaired by re-scan")
	dt.safeModeG = r.Gauge("holmes_safe_mode", "1 while the daemon is in the static-partition fallback")
	dt.reservedCPUs = r.Gauge("holmes_reserved_cpus", "logical CPUs in the reserved LC pool")
	dt.batchCPUs = r.Gauge("holmes_batch_cpus", "logical CPUs batch jobs may currently use")
	dt.containers = r.Gauge("holmes_batch_containers", "live batch containers under the yarn root")
	dt.lcServices = r.Gauge("holmes_lc_services", "registered latency-critical services")
	dt.lcVPI = r.Histogram("holmes_lc_vpi", "VPI observed on reserved LC CPUs", 0.1, 10_000, 5)
}

// resolveSpans attaches the span recorder: an explicit Config.Spans wins,
// otherwise the Telemetry set's own recorder serves holmesd's /spans
// endpoint.
func (dt *daemonTelemetry) resolveSpans(explicit *telemetry.SpanRecorder, set *telemetry.Set, node int) {
	dt.node = node
	if explicit != nil {
		dt.rec = explicit
		return
	}
	if set != nil {
		dt.rec = set.Spans
	}
}

func (dt *daemonTelemetry) enabled() bool { return dt.set != nil }

// chargeSpan accounts one modeled span op. The charge depends only on the
// telemetry set being attached — never on the recorder — so the modeled
// daemon cost is identical with tracing on or off.
func (dt *daemonTelemetry) chargeSpan() {
	if dt.set != nil {
		dt.spanOps++
	}
}

// span records a closed span (Node stamped here) and returns its ID, or 0
// when no recorder is attached.
func (dt *daemonTelemetry) span(s telemetry.Span) uint64 {
	dt.chargeSpan()
	if dt.rec == nil {
		return 0
	}
	s.Node = dt.node
	return dt.rec.Add(s)
}

// spanStart records an open span (EndNs pending).
func (dt *daemonTelemetry) spanStart(s telemetry.Span) uint64 {
	dt.chargeSpan()
	if dt.rec == nil {
		return 0
	}
	s.Node = dt.node
	return dt.rec.Start(s)
}

// spanFinish closes a previously started span.
func (dt *daemonTelemetry) spanFinish(id uint64, endNs int64) {
	dt.chargeSpan()
	if dt.rec == nil {
		return
	}
	dt.rec.Finish(id, endNs)
}

func (dt *daemonTelemetry) inc(c *telemetry.Counter) {
	if dt.set == nil {
		return
	}
	c.Inc()
	dt.recordOps++
}

func (dt *daemonTelemetry) gauge(g *telemetry.Gauge, v float64) {
	if dt.set == nil {
		return
	}
	g.Set(v)
	dt.recordOps++
}

func (dt *daemonTelemetry) observe(h *telemetry.Histogram, v float64) {
	if dt.set == nil {
		return
	}
	h.Observe(v)
	dt.recordOps++
}

// drainCycles returns the modeled cycle cost of everything recorded since
// the previous drain and resets the tick counters.
func (dt *daemonTelemetry) drainCycles() float64 {
	if dt.set == nil || (dt.recordOps == 0 && dt.spanOps == 0) {
		return 0
	}
	c := float64(dt.recordOps)*telemetryCyclesPerRecord +
		float64(dt.spanOps)*telemetryCyclesPerSpan
	dt.recordOps, dt.spanOps = 0, 0
	return c
}

// updatePoolGauges refreshes the cheap state gauges after any transition.
func (d *Daemon) updatePoolGauges() {
	if !d.tel.enabled() {
		return
	}
	d.tel.gauge(d.tel.reservedCPUs, float64(d.reserved.Count()))
	d.tel.gauge(d.tel.batchCPUs, float64(d.BatchMask().Count()))
	d.tel.gauge(d.tel.containers, float64(len(d.containers)))
	d.tel.gauge(d.tel.lcServices, float64(len(d.lcPids)))
}

// DaemonStats is a point-in-time snapshot of the daemon's action counters
// plus the modeled telemetry cost, for the §6.6 daemon-vs-telemetry split.
type DaemonStats struct {
	Invocations   int64
	Deallocations int64
	Reallocations int64
	Expansions    int64
	// Graceful-degradation counters (zero unless the watchdog/re-scan
	// knobs are enabled).
	SafeModeEntries int64
	SafeModeExits   int64
	Rescans         int64
	RescanRepairs   int64
	// TelemetryCPUTimeNs is the simulated CPU time spent on telemetry
	// recording — a subset of CPUTimeNs when overhead modeling is on.
	TelemetryCPUTimeNs float64
}

// Snapshot returns the daemon's counters and the telemetry cost split.
// Stats() remains for callers that only need the action counts.
func (d *Daemon) Snapshot() DaemonStats {
	return DaemonStats{
		Invocations:        d.invocations,
		Deallocations:      d.deallocations,
		Reallocations:      d.reallocations,
		Expansions:         d.expansions,
		SafeModeEntries:    d.safeModeEntries,
		SafeModeExits:      d.safeModeExits,
		Rescans:            d.rescans,
		RescanRepairs:      d.rescanRepairs,
		TelemetryCPUTimeNs: d.TelemetryCPUTimeNs(),
	}
}

// TelemetryCPUTimeNs returns the modeled CPU time consumed by telemetry
// recording so far, or 0 when telemetry is disabled.
func (d *Daemon) TelemetryCPUTimeNs() float64 {
	return d.m.Config().CyclesToNs(d.telemetryCycles)
}
