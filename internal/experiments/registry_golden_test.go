package experiments

import (
	"os"
	"strings"
	"sync"
	"testing"
)

// goldenOptions are the options the registry goldens pin. Parallel 8 makes
// the golden render also the parallel half of the determinism contract;
// TestRegistryBatchingEquivalence renders the serial half.
var goldenOptions = Options{Seed: 7, Scale: 0.05, Parallel: 8}

// skipRegistryUnderRace skips a whole-registry render under -race, where
// it outlasts go test's default timeout on two CPUs, unless
// HOLMES_EQUIV_FULL asks for it (make batch-equiv).
func skipRegistryUnderRace(t *testing.T) {
	t.Helper()
	if os.Getenv("HOLMES_EQUIV_FULL") == "" {
		skipHeavyUnderRace(t)
	}
}

// goldenRun holds every registry experiment's result at goldenOptions,
// computed once per test binary; the tests that read registry results
// share it.
var goldenRun struct {
	once    sync.Once
	results []Result
	err     error
}

// registryResults returns the shared results, aligned with IDs().
func registryResults(t *testing.T) []Result {
	t.Helper()
	skipRegistryUnderRace(t)
	goldenRun.once.Do(func() {
		goldenRun.results, goldenRun.err = RunResults(goldenOptions, IDs())
	})
	if goldenRun.err != nil {
		t.Fatal(goldenRun.err)
	}
	return goldenRun.results
}

// TestRegistryGolden pins every registry experiment's rendered text
// across commits. A deliberate behaviour change regenerates the files with
// `go test ./internal/experiments -run TestRegistryGolden -update` and
// says why in the change description.
func TestRegistryGolden(t *testing.T) {
	results := registryResults(t)
	for i, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			checkGolden(t, "registry/"+id, results[i].Render())
		})
	}
}

// TestHTMLReportGenerates lays the shared results out as the HTML report
// and pins the document's digest, so the report is held across commits
// like the text it is drawn from.
func TestHTMLReportGenerates(t *testing.T) {
	results := registryResults(t)
	index := map[string]int{}
	for i, id := range IDs() {
		index[id] = i
	}
	var picked []Result
	for _, id := range ReportIDs() {
		picked = append(picked, results[index[id]])
	}
	var b strings.Builder
	if err := WriteHTMLReport(&b, goldenOptions, picked); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"<!DOCTYPE html>", `id="fig2"`, `id="fig7"`,
		`id="fig13"`, `id="table4"`, "<svg", "STALLS_MEM_ANY"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	if strings.Count(out, "<svg") < 10 {
		t.Fatalf("report has only %d figures", strings.Count(out, "<svg"))
	}
	checkGolden(t, "registry/report-html-sha256", digest([]byte(out))+"\n")
	if err := WriteHTMLReport(&b, goldenOptions, picked[1:]); err == nil {
		t.Fatal("report accepted results not aligned with ReportIDs")
	}
}
