// Command holmes-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	holmes-bench list
//	holmes-bench [-full] [-seed N] <experiment-id>...
//	holmes-bench [-full] [-seed N] all
//
// Experiment ids follow the paper: fig2, fig3, table1, fig4, fig5,
// fig7..fig14, table3, table4, overhead — plus extensions: ablations,
// cluster (multi-node placement) and chaos (deterministic fault
// injection with and without graceful degradation). The default profile
// runs time-compressed windows that finish in seconds to minutes; -full
// uses the paper-faithful windows. -parallel N fans independent simulation
// runs across N workers; every run derives its seed from (seed, run key),
// so the output is byte-identical at any parallelism.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/holmes-colocation/holmes/internal/experiments"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/runner"
	"github.com/holmes-colocation/holmes/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("holmes-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	full := fs.Bool("full", false, "run paper-faithful (longer) measurement windows")
	seed := fs.Uint64("seed", 1, "simulation seed")
	parallel := fs.Int("parallel", runner.DefaultParallelism(),
		"max concurrent simulation runs (1 = serial; output identical either way)")
	outDir := fs.String("o", "", "also write each experiment's output to <dir>/<id>.txt")
	telemetryOut := fs.String("telemetry-out", "", "stream scheduler decision events to this JSONL file")
	traceOut := fs.String("trace-out", "", "write recorded daemon spans to this file (.jsonl = one span per line, otherwise Chrome trace-event JSON)")
	noBatch := fs.Bool("no-interval-batch", false,
		"disable the interval-batched loaded path (escape hatch; output is bit-identical either way)")
	fs.Usage = func() { usage(stderr) }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *noBatch {
		machine.SetDefaultIntervalBatching(false)
	}

	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "holmes-bench: "+format+"\n", a...)
		return 1
	}
	if *parallel < 1 {
		return fail("-parallel %d must be at least 1", *parallel)
	}
	rest := fs.Args()
	if len(rest) == 0 {
		usage(stderr)
		return 2
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fail("%v", err)
		}
	}
	save := func(id, out string) {
		if *outDir == "" {
			return
		}
		path := filepath.Join(*outDir, id+".txt")
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			fmt.Fprintln(stderr, "warning:", err)
		}
	}

	opts := experiments.Options{Full: *full, Seed: *seed, Parallel: *parallel}
	var set *telemetry.Set
	if *telemetryOut != "" || *traceOut != "" {
		set = telemetry.NewSet()
		opts.Telemetry = set
	}
	var jsonl *telemetry.JSONLSink
	if *telemetryOut != "" {
		f, err := os.Create(*telemetryOut)
		if err != nil {
			return fail("%v", err)
		}
		defer func() {
			f.Close()
			fmt.Fprintf(stderr, "telemetry: %d events -> %s\n", jsonl.Count(), *telemetryOut)
		}()
		jsonl = telemetry.NewJSONLSink(f)
		set.Tracer.AddSink(jsonl)
	}
	reg := experiments.Registry()

	if rest[0] == "list" {
		for _, id := range experiments.IDs() {
			fmt.Fprintf(stdout, "%-10s %s\n", id, reg[id].Title)
		}
		return 0
	}
	if rest[0] == "report" {
		path := "holmes-report.html"
		if *outDir != "" {
			path = filepath.Join(*outDir, "holmes-report.html")
		}
		f, err := os.Create(path)
		if err != nil {
			return fail("%v", err)
		}
		if err := experiments.WriteHTMLReport(f, opts); err != nil {
			f.Close()
			return fail("%v", err)
		}
		f.Close()
		fmt.Fprintln(stdout, "wrote", path)
		return 0
	}

	ids := rest
	if rest[0] == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		if _, ok := reg[id]; !ok {
			fmt.Fprintf(stderr, "unknown experiment %q; try 'holmes-bench list'\n", id)
			return 2
		}
	}
	// RunIDs executes up to -parallel experiments concurrently and returns
	// outputs aligned with ids, so printing stays in request order.
	outs, err := experiments.RunIDs(opts, ids)
	if err != nil {
		return fail("%v", err)
	}
	for i, id := range ids {
		fmt.Fprintf(stdout, "############ %s: %s ############\n%s\n", id, reg[id].Title, outs[i])
		save(id, outs[i])
	}
	if *traceOut != "" {
		spans := set.Spans.Snapshot()
		if err := writeSpans(*traceOut, spans); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stderr, "trace: %d spans -> %s\n", len(spans), *traceOut)
	}
	return 0
}

// writeSpans exports spans by extension: .jsonl as one span per line,
// anything else as Chrome trace-event JSON (loadable in Perfetto).
func writeSpans(path string, spans []telemetry.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = telemetry.WriteSpansJSONL(f, spans)
	} else {
		err = telemetry.WriteChromeTrace(f, spans)
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `holmes-bench regenerates the tables and figures of
"Holmes: SMT Interference Diagnosis and CPU Scheduling for Job Co-location" (HPDC'22).

Usage:
  holmes-bench list                     show available experiments
  holmes-bench [flags] <id>...          run specific experiments
  holmes-bench [flags] all              run everything in paper order
  holmes-bench [flags] report           write an HTML report with SVG figures

Beyond the paper's figures, "cluster" compares multi-node placement
policies and "chaos" runs the deterministic fault-injection experiment
(fault-free vs faults-with-degradation vs faults-without).

Flags:
  -full                paper-faithful measurement windows (minutes of simulated time)
  -seed N              simulation seed (default 1)
  -parallel N          max concurrent simulation runs (default GOMAXPROCS);
                       every run's seed derives from (seed, run key), so
                       output is byte-identical at any parallelism
  -o DIR               also write each experiment's output to DIR/<id>.txt
  -telemetry-out FILE  stream scheduler decision events (JSONL) to FILE
  -trace-out FILE      write recorded daemon spans to FILE (.jsonl = one
                       span per line, otherwise Chrome trace-event JSON
                       loadable in Perfetto / chrome://tracing)
  -no-interval-batch   disable the interval-batched loaded simulation path
                       (escape hatch; output is bit-identical either way)
`)
}
