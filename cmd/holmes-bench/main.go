// Command holmes-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	holmes-bench list
//	holmes-bench [-full] [-seed N] <experiment-id>...
//	holmes-bench [-full] [-seed N] all
//	holmes-bench [-full] [-seed N] report
//
// Experiment ids follow the paper: fig2, fig3, table1, fig4, fig5,
// fig7..fig14, table3, table4, overhead — plus extensions: ablations,
// cluster, chaos, traffic, storm and scale. The last four end in a PASS,
// FAIL or SKIPPED verdict, and holmes-bench exits 1 after printing if any
// requested verdict is not PASS. The default profile runs time-compressed
// windows that finish in seconds to minutes; -full uses the
// paper-faithful windows. -parallel N fans independent simulation runs
// across N workers; every run derives its seed from (seed, run key), so
// the output is byte-identical at any parallelism.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/holmes-colocation/holmes/internal/experiments"
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
	traceOut := fs.String("trace-out", "", "write recorded daemon spans to this file (.jsonl = one span per line, otherwise Chrome trace-event JSON)")
	fs.Usage = func() { usage(stderr) }
	if err := fs.Parse(args); err != nil {
		return 2
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
	var traceFile *os.File
	if *traceOut != "" {
		// Created up front so a bad path fails before any simulation runs.
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail("%v", err)
		}
		defer f.Close()
		traceFile = f
		set = telemetry.NewSet()
		opts.Telemetry = set
	}
	reg := experiments.Registry()

	if rest[0] == "list" {
		for _, id := range experiments.IDs() {
			fmt.Fprintf(stdout, "%-10s %s\n", id, reg[id].Title)
		}
		return 0
	}
	ids := rest
	var html *os.File
	switch rest[0] {
	case "all":
		ids = experiments.IDs()
	case "report":
		ids = experiments.ReportIDs()
		path := "holmes-report.html"
		if *outDir != "" {
			path = filepath.Join(*outDir, "holmes-report.html")
		}
		f, err := os.Create(path)
		if err != nil {
			return fail("%v", err)
		}
		defer f.Close()
		html = f
	}
	for _, id := range ids {
		if _, ok := reg[id]; !ok {
			fmt.Fprintf(stderr, "unknown experiment %q; try 'holmes-bench list'\n", id)
			return 2
		}
	}
	// runResults executes up to -parallel experiments concurrently and
	// returns results aligned with ids, so printing stays in request order.
	results, err := runResults(opts, ids)
	if err != nil {
		return fail("%v", err)
	}
	if html != nil {
		if err := experiments.WriteHTMLReport(html, opts, results); err != nil {
			return fail("%v", err)
		}
		if err := html.Close(); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintln(stdout, "wrote", html.Name())
		return 0
	}
	code := 0
	for i, id := range ids {
		out := results[i].Render()
		fmt.Fprintf(stdout, "############ %s: %s ############\n%s\n", id, reg[id].Title, out)
		save(id, out)
		if v, ok := results[i].(verdicter); ok && v.Verdict().Status != experiments.Pass {
			fmt.Fprintf(stderr, "holmes-bench: %s verdict %s\n", id, v.Verdict())
			code = 1
		}
	}
	if traceFile != nil {
		spans := set.Spans.Snapshot()
		if err := writeSpans(traceFile, spans); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stderr, "trace: %d spans -> %s\n", len(spans), *traceOut)
	}
	return code
}

// verdicter is a result that judges its own claim: chaos, traffic, storm
// and scale.
type verdicter interface {
	Verdict() experiments.Verdict
}

// runResults is experiments.RunResults; tests substitute hand-built
// results to drive the exit status.
var runResults = experiments.RunResults

// writeSpans exports spans by extension: .jsonl as one span per line,
// anything else as Chrome trace-event JSON (loadable in Perfetto).
func writeSpans(f *os.File, spans []telemetry.Span) error {
	write := telemetry.WriteChromeTrace
	if strings.HasSuffix(f.Name(), ".jsonl") {
		write = telemetry.WriteSpansJSONL
	}
	if err := write(f, spans); err != nil {
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

Beyond the paper's figures: ablations, cluster, chaos, traffic, storm and
scale. The last four end in a PASS, FAIL or SKIPPED verdict; after
printing, holmes-bench exits 1 if any requested verdict is not PASS.

Flags:
  -full                paper-faithful measurement windows (minutes of simulated time)
  -seed N              simulation seed (default 1)
  -parallel N          max concurrent simulation runs (default GOMAXPROCS);
                       every run's seed derives from (seed, run key), so
                       output is byte-identical at any parallelism
  -o DIR               also write each experiment's output to DIR/<id>.txt
  -trace-out FILE      record the daemons' decision spans and write them
                       to FILE (.jsonl = one span per line, otherwise
                       Chrome trace-event JSON loadable in Perfetto /
                       chrome://tracing); recording charges its modeled
                       cost to each daemon, so CPU figures move slightly
`)
}
