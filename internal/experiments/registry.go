package experiments

import (
	"fmt"
	"sort"
	"sync"

	"github.com/holmes-colocation/holmes/internal/runner"
	"github.com/holmes-colocation/holmes/internal/telemetry"
)

// Options scales the registry's runs: Full uses paper-faithful windows
// (minutes of simulated time); otherwise a quick profile runs in seconds.
type Options struct {
	Full bool
	Seed uint64
	// Scale multiplies every measurement window (0 = 1.0). Values below
	// one shrink runs further than the quick profile; tests use ~0.2.
	Scale float64
	// Parallel bounds how many simulation runs execute concurrently
	// (<= 1 means serial). Results are byte-identical at any value: every
	// run's seed derives from (Seed, run key), never from scheduling.
	Parallel int
	// Telemetry, when non-nil, is attached to every Holmes daemon a run
	// starts — every co-location run, table4's convergence trials and the
	// cluster nodes — so holmes-bench can export their decision spans
	// afterwards. Recording charges its modeled cost to each daemon, so
	// CPU figures differ slightly from a run without a set. fig2, fig3,
	// fig5, table1 and fig4 start no daemon and record nothing.
	Telemetry *telemetry.Set
}

func (o Options) scaled(ns int64) int64 {
	if o.Scale > 0 {
		ns = int64(float64(ns) * o.Scale)
	}
	if ns < 100_000_000 {
		ns = 100_000_000
	}
	return ns
}

func (o Options) colocDuration() int64 {
	if o.Full {
		return o.scaled(30_000_000_000) // 30 s measured window
	}
	return o.scaled(8_000_000_000)
}

// colocation is DefaultColocation recording into o.Telemetry: the one
// place a registry co-location run picks up the options' set.
func (o Options) colocation(store, workload string, setting Setting) ColocationConfig {
	cfg := DefaultColocation(store, workload, setting)
	cfg.Telemetry = o.Telemetry
	return cfg
}

// colocWarmup is the pre-measurement window of suite, fig13 and fig14
// runs; it scales with the profile so heavily compressed runs (tests,
// smoke profiles) do not spend most of their time warming up.
func (o Options) colocWarmup() int64 {
	return o.scaled(2_000_000_000)
}

func (o Options) microDuration() int64 {
	if o.Full {
		return o.scaled(2_000_000_000)
	}
	return o.scaled(400_000_000)
}

func (o Options) sweepWindow() int64 {
	if o.Full {
		return o.scaled(1_000_000_000)
	}
	return o.scaled(150_000_000)
}

// workers normalizes Parallel for the worker pool.
func (o Options) workers() int {
	if o.Parallel <= 1 {
		return 1
	}
	return o.Parallel
}

// Result is what a registry experiment returns: the typed data the HTML
// report, the CLI gates and the tests read, and the text it renders.
type Result interface {
	Render() string
}

// typed lifts a run's concrete result type to Result.
func typed[R Result](r R, err error) (Result, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Experiment is a runnable table or figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) (Result, error)
}

// Registry returns every experiment keyed by id. Co-location figures
// share a per-invocation Suite so `all` does not re-run combinations.
// The shared accessors are mutex-guarded: RunResults executes experiments
// concurrently, and the Suite itself coalesces concurrent runs.
func Registry() map[string]Experiment {
	var suiteMu sync.Mutex
	var suite *Suite
	getSuite := func(o Options) *Suite {
		suiteMu.Lock()
		defer suiteMu.Unlock()
		if suite == nil || suite.DurationNs != o.colocDuration() ||
			suite.WarmupNs != o.colocWarmup() || suite.Seed != o.Seed ||
			suite.Workers != o.workers() {
			suite = NewSuite(o.colocDuration(), o.Seed)
			suite.WarmupNs = o.colocWarmup()
			suite.Workers = o.workers()
			suite.Telemetry = o.Telemetry
		}
		return suite
	}
	// suiteFigure fetches the given stores' matrices into the shared
	// suite, then returns the figure that renders from it.
	suiteFigure := func(o Options, render func(*Suite) string, stores ...string) (Result, error) {
		s := getSuite(o)
		if err := s.Prefetch(stores...); err != nil {
			return nil, err
		}
		return SuiteResult{s, render}, nil
	}
	var sweepMu sync.Mutex
	var sweep *SweepResult
	getSweep := func(o Options) SweepResult {
		sweepMu.Lock()
		defer sweepMu.Unlock()
		if sweep == nil {
			s := RunSweep(o)
			sweep = &s
		}
		return *sweep
	}

	exps := []Experiment{
		{"fig2", "Memory access latency from different sources", func(o Options) (Result, error) {
			return RunFig2(o), nil
		}},
		{"fig3", "Redis latency: Alone / Co-separate / Co-hyper", func(o Options) (Result, error) {
			return typed(RunFig3(o))
		}},
		{"table1", "Candidate HPE correlation study", func(o Options) (Result, error) {
			return Table1Result{getSweep(o)}, nil
		}},
		{"fig4", "Normalized latency and VPIs vs request rate", func(o Options) (Result, error) {
			return Fig4Result{getSweep(o)}, nil
		}},
		{"fig5", "VPI effectiveness on four services", func(o Options) (Result, error) {
			return typed(RunFig5(o, nil))
		}},
		{"fig11", "SLO violation ratios", func(o Options) (Result, error) {
			return suiteFigure(o, (*Suite).renderSLOViolations, StoreNames()...)
		}},
		{"fig12", "Average CPU utilization", func(o Options) (Result, error) {
			return suiteFigure(o, (*Suite).renderCPUUtilization, StoreNames()...)
		}},
		{"fig13", "VPI timeline under three settings (RocksDB)", func(o Options) (Result, error) {
			return typed(RunFig13(o))
		}},
		{"table3", "Throughput comparison", func(o Options) (Result, error) {
			s := getSuite(o)
			for _, set := range []Setting{PerfIso, Holmes, Alone} {
				if _, err := s.Get("redis", "a", set); err != nil {
					return nil, err
				}
			}
			return SuiteResult{s, (*Suite).renderTable3}, nil
		}},
		{"fig14", "Threshold E sensitivity", func(o Options) (Result, error) {
			return typed(RunFig14(o))
		}},
		{"table4", "Convergence speed comparison", func(o Options) (Result, error) {
			return typed(RunTable4(o))
		}},
		{"overhead", "Holmes daemon overhead", func(o Options) (Result, error) {
			return typed(RunOverhead(o))
		}},
		{"ablations", "Design-choice ablations (CPS metric, usage trigger, interval)", func(o Options) (Result, error) {
			return typed(RunAblations(o))
		}},
		{"cluster", "Multi-node placement: VPI-aware vs bin-packing", func(o Options) (Result, error) {
			return typed(RunCluster(o))
		}},
		{"chaos", "Fault injection: graceful degradation vs no degradation", func(o Options) (Result, error) {
			return typed(RunChaos(o))
		}},
		{"traffic", "Open-loop traffic engine: diurnal day, autoscaled replicas, backfill on/off", func(o Options) (Result, error) {
			return typed(RunTraffic(o))
		}},
		{"storm", "Retry storm: flash crowd + node crash; naive vs budgeted retries vs no-retry control", func(o Options) (Result, error) {
			return typed(RunStorm(o))
		}},
		{"scale", "Datacenter scale: 256-node fleet, scoring vs vpi vs binpack placement under LoD", func(o Options) (Result, error) {
			return typed(RunScale(o))
		}},
	}
	// Per-service latency CDF figures.
	for _, store := range StoreNames() {
		store := store
		exps = append(exps, Experiment{
			ID:    fmt.Sprintf("fig%d", figNumber(store)),
			Title: fmt.Sprintf("Query latency CDFs: %s", store),
			Run: func(o Options) (Result, error) {
				return suiteFigure(o, func(s *Suite) string { return s.renderLatencyCDFs(store) }, store)
			},
		})
	}

	out := map[string]Experiment{}
	for _, e := range exps {
		out[e.ID] = e
	}
	return out
}

// IDs returns the experiment ids in a stable, paper order.
func IDs() []string {
	ids := make([]string, 0)
	for id := range Registry() {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return orderKey(ids[i]) < orderKey(ids[j]) })
	return ids
}

func orderKey(id string) string {
	// figN and tableN sort numerically within their kind; tables
	// interleave where the paper places them.
	order := map[string]string{
		"fig2": "02", "fig3": "03", "table1": "04", "fig4": "05", "fig5": "06",
		"fig7": "07", "fig8": "08", "fig9": "09", "fig10": "10", "fig11": "11",
		"fig12": "12", "fig13": "13", "table3": "14", "fig14": "15",
		"table4": "16", "overhead": "17", "ablations": "18", "cluster": "19",
		"chaos": "20", "traffic": "21", "storm": "22", "scale": "23",
	}
	if k, ok := order[id]; ok {
		return k
	}
	return "99" + id
}

// RunResults executes the named experiments — up to o.Parallel
// concurrently — against one shared registry instance, returning their
// results aligned with ids. Concurrent experiments share the co-location
// suite, whose singleflight cache computes each matrix combination exactly
// once; the results render byte-identically at every parallelism level.
func RunResults(o Options, ids []string) ([]Result, error) {
	reg := Registry()
	for _, id := range ids {
		if _, ok := reg[id]; !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q", id)
		}
	}
	results := make([]Result, len(ids))
	tasks := make([]func() error, len(ids))
	for i, id := range ids {
		i, e := i, reg[id]
		tasks[i] = func() error {
			r, err := e.Run(o)
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			results[i] = r
			return nil
		}
	}
	if err := runner.Run(o.workers(), tasks); err != nil {
		return nil, err
	}
	return results, nil
}

// RunIDs is RunResults rendered: each experiment's text output, aligned
// with ids.
func RunIDs(o Options, ids []string) ([]string, error) {
	results, err := RunResults(o, ids)
	if err != nil {
		return nil, err
	}
	outs := make([]string, len(results))
	for i, r := range results {
		outs[i] = r.Render()
	}
	return outs, nil
}
