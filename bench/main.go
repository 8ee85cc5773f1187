// Command bench is the repository benchmark. It runs four workloads that
// stress different layers of the simulator (see README.md), each
// repetition in a fresh child process, and reports host cost (wall, CPU,
// set-up time, peak memory), the simulated outcome, and per-layer numbers
// measured from outside by timing the layers' public calls. A traced run
// adds a CPU profile and harness-side spans.
//
//	go run .                                   # from bench/: all workloads, 7 reps
//	go run . -trace                            # plus one traced rep per workload
//	go run . -compare base.json new.json       # verdicts per workload × metric
//	bash bench/run.sh --workload fleet-256 --seed 2 --seconds 20 --trace 0
//
// With one -workload the last line of standard output is a JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	reps     int
	seconds  float64
	trace    bool
	quick    bool
	out      string
	spawned  int64
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	fl.StringVar(&o.workload, "workload", "", "run only this workload (default: all, interleaved rep by rep)")
	fl.Uint64Var(&o.seed, "seed", 1, "workload seed; 2 is the held-out seed")
	fl.IntVar(&o.reps, "reps", 7, "timed reps per workload")
	fl.Float64Var(&o.seconds, "seconds", 0, "if > 0, start timed reps until this many seconds have passed, instead of -reps")
	fl.BoolVar(&o.trace, "trace", false, "add one traced rep per workload (CPU profile and spans)")
	fl.BoolVar(&o.quick, "quick", false, "smoke mode: 1 rep, simulated windows ÷10")
	fl.StringVar(&o.out, "out", "bench-out", "directory for results.json, trace.json, layers.json and profiles")
	doCompare := fl.Bool("compare", false, "compare two results.json files: -compare base.json new.json")
	child := fl.String("child", "", "internal: run one rep in this process (timed or traced) and print it as JSON")
	fl.Int64Var(&o.spawned, "spawned", 0, "internal: when the parent started this child, in Unix nanoseconds")
	if err := fl.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	switch {
	case *doCompare:
		return runCompare(fl.Args(), stdout, stderr)
	case *child != "":
		return runChild(o, *child == "traced", stdout, stderr)
	case fl.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fl.Args())
		return 2
	}
	return runBench(o, stdout, stderr)
}

// joinTraceValue rewrites "-trace 0" and "-trace 1" as "-trace=0" and
// "-trace=1": the flag package would otherwise read the bare boolean flag
// and stop parsing at the value.
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

func (o options) scale() float64 {
	if o.quick {
		return 0.1
	}
	return 1
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rep is what a child process reports.
type rep struct {
	Metrics  map[string]float64 `json:"metrics"`
	Digest   string             `json:"digest"`
	Failures []string           `json:"failures,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
}

// runChild runs one rep of o.workload in this process and prints it as JSON.
func runChild(o options, traced bool, stdout, stderr io.Writer) int {
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	s := newRepState(o.seed, o.scale(), traced)
	if o.spawned > 0 {
		s.metrics["setup.process_start_s"] = time.Since(time.Unix(0, o.spawned)).Seconds()
	}
	if traced {
		f, err := os.Create(profilePath(o.out, w.name))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	err := w.run(s)
	s.finish()
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	r := rep{Metrics: s.metrics, Digest: fmt.Sprintf("%x", s.out.Sum(nil)), Failures: s.failures, Spans: s.tr.spans}
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func profilePath(dir, workload string) string {
	return filepath.Join(dir, workload+".cpu.pprof")
}

// spawn runs one rep in a fresh child process and waits for it.
func spawn(exe string, o options, name string, traced bool) (*rep, error) {
	kind := "timed"
	if traced {
		kind = "traced"
	}
	args := []string{"-child", kind, "-workload", name, "-seed", fmt.Sprint(o.seed), "-out", o.out,
		"-spawned", fmt.Sprint(time.Now().UnixNano())}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s rep: %w", name, err)
	}
	var r rep
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("%s rep: %w", name, err)
	}
	return &r, nil
}

// results is bench-out/results.json.
type results struct {
	Seed      uint64           `json:"seed"`
	Quick     bool             `json:"quick"`
	GoVersion string           `json:"go_version"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name         string             `json:"name"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	FailedFrac   float64            `json:"failed_frac"`
	Failures     []string           `json:"failures,omitempty"`
	OutputSHA256 string             `json:"output_sha256"`
	Metrics      map[string]stat    `json:"metrics"`
	Traced       map[string]float64 `json:"traced,omitempty"`

	timed  []*rep
	traced *rep
}

// add records one rep. A rep fails when the child failed, a check failed,
// or its simulated output differs from the workload's first rep.
func (wr *workloadResult) add(r *rep, err error) {
	wr.Attempted++
	var why []string
	switch {
	case err != nil:
		why = []string{err.Error()}
	case wr.OutputSHA256 == "":
		wr.OutputSHA256 = r.Digest
	case r.Digest != wr.OutputSHA256:
		why = []string{fmt.Sprintf("output_sha256 %s differs from the first rep's %s", r.Digest, wr.OutputSHA256)}
	}
	if r != nil {
		why = append(why, r.Failures...)
	}
	if len(why) > 0 {
		wr.Failed++
		wr.Failures = append(wr.Failures, why...)
	}
	wr.FailedFrac = float64(wr.Failed) / float64(wr.Attempted)
}

func (wr *workloadResult) summarize() {
	values := map[string][]float64{}
	for _, r := range wr.timed {
		for k, v := range r.Metrics {
			values[k] = append(values[k], v)
		}
	}
	wr.Metrics = map[string]stat{}
	for k, vs := range values {
		d, _ := lookup(k)
		wr.Metrics[k] = summarize(d.unit, vs)
	}
	if wr.traced != nil {
		wr.Traced = wr.traced.Metrics
		if base, ok := wr.Metrics["wall_s"]; ok && base.Median > 0 {
			wr.Traced["trace_overhead_pct"] = 100 * (wr.Traced["wall_s"]/base.Median - 1)
		}
		// A declared layer metric this workload never touches reads 0.
		for _, name := range declared(layer) {
			if _, ok := wr.Traced[name]; !ok {
				wr.Traced[name] = 0
			}
		}
	}
}

func runBench(o options, stdout, stderr io.Writer) int {
	ws := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		ws = []workload{w}
	}
	if o.quick {
		o.reps, o.seconds = 1, 0
	}
	if o.reps < 1 {
		fmt.Fprintln(stderr, "bench: -reps must be at least 1")
		return 2
	}
	exe, err := os.Executable()
	if err == nil {
		err = os.MkdirAll(o.out, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	res := &results{Seed: o.seed, Quick: o.quick, GoVersion: runtime.Version()}
	for _, w := range ws {
		res.Workloads = append(res.Workloads, workloadResult{Name: w.name})
	}
	// Rep 1 of every workload, then rep 2, …, so machine drift hits every
	// workload alike. One child runs at a time.
	start := time.Now()
	for round := 1; ; round++ {
		for i, w := range ws {
			r, err := spawn(exe, o, w.name, false)
			res.Workloads[i].add(r, err)
			if err == nil {
				res.Workloads[i].timed = append(res.Workloads[i].timed, r)
			}
		}
		if (o.seconds > 0 && time.Since(start).Seconds() >= o.seconds) || (o.seconds <= 0 && round >= o.reps) {
			break
		}
	}
	if o.trace {
		for i, w := range ws {
			r, err := spawn(exe, o, w.name, true)
			if err == nil {
				var shares map[string]float64
				if shares, err = foldProfile(profilePath(o.out, w.name)); err == nil {
					for k, v := range shares {
						r.Metrics[k] = v
					}
					res.Workloads[i].traced = r
				}
			}
			res.Workloads[i].add(r, err)
		}
	}
	for i := range res.Workloads {
		res.Workloads[i].summarize()
	}

	printResults(stdout, res)
	if err := writeOutputs(o, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	correct := true
	for _, wr := range res.Workloads {
		correct = correct && wr.Failed == 0
	}
	if len(res.Workloads) == 1 {
		printDriverLine(stdout, res.Workloads[0], o.trace)
	}
	if !correct {
		return 1
	}
	return 0
}

func printResults(w io.Writer, res *results) {
	for _, wr := range res.Workloads {
		for _, k := range sortedKeys(wr.Metrics) {
			s := wr.Metrics[k]
			fmt.Fprintf(w, "%-16s %-32s %14.6g %-13s (median, q1–q3 %.6g–%.6g, n=%d)\n",
				wr.Name, k, s.Median, s.Unit, s.Q1, s.Q3, s.N)
		}
		for _, k := range sortedKeys(wr.Traced) {
			d, _ := lookup(k)
			fmt.Fprintf(w, "%-16s %-32s %14.6g %-13s (traced rep)\n", wr.Name, k, wr.Traced[k], d.unit)
		}
		fmt.Fprintf(w, "%-16s %-32s %14.6g %-13s (%d of %d reps failed)\n",
			wr.Name, "failed_frac", wr.FailedFrac, "ratio", wr.Failed, wr.Attempted)
		fmt.Fprintf(w, "%-16s %-32s %s\n", wr.Name, "output_sha256", wr.OutputSHA256)
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "%-16s FAILED: %s\n", wr.Name, f)
		}
	}
}

// printDriverLine prints the one-line JSON result: the end-to-end medians
// of the timed reps, or with trace the traced rep's per-layer metrics.
func printDriverLine(w io.Writer, wr workloadResult, trace bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if trace {
		for _, name := range declared(layer) {
			if v, ok := wr.Traced[name]; ok {
				d, _ := lookup(name)
				metrics[name] = value{v, d.unit}
			}
		}
	} else {
		for _, name := range declared(e2e) {
			if s, ok := wr.Metrics[name]; ok {
				metrics[name] = value{s.Median, s.Unit}
			}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": wr.Failed == 0, "attempted": wr.Attempted, "failed": wr.Failed, "metrics": metrics,
	})
	fmt.Fprintln(w, string(line))
}

// writeOutputs writes results.json and, after a traced run, trace.json
// and layers.json.
func writeOutputs(o options, res *results) error {
	if err := writeJSON(filepath.Join(o.out, "results.json"), res); err != nil {
		return err
	}
	var names []string
	var spans [][]span
	layers := map[string]any{}
	for _, wr := range res.Workloads {
		if wr.traced == nil {
			continue
		}
		names = append(names, wr.Name)
		spans = append(spans, wr.traced.Spans)
		layers[wr.Name] = map[string]any{"metrics": wr.Traced, "spans": summarizeSpans(wr.traced.Spans)}
	}
	if len(names) == 0 {
		return nil
	}
	if err := writeChromeTrace(filepath.Join(o.out, "trace.json"), names, spans); err != nil {
		return err
	}
	return writeJSON(filepath.Join(o.out, "layers.json"), layers)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare needs two results.json files: base, new")
		return 2
	}
	base, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cur, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if base.Seed != cur.Seed || base.Quick != cur.Quick {
		fmt.Fprintln(stderr, "bench: the two results use different seeds or modes")
		return 2
	}
	if compare(base, cur, stdout) > 0 {
		return 1
	}
	return 0
}
