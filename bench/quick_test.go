package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary serve as the harness's child process, so
// the smoke test below runs reps the way the benchmark does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the harness must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func direction(d metricDef) string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

func TestBenchmarkFileMatchesMetricTable(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	var e2eNames, layerNames []string
	for _, m := range bf.EndToEnd {
		e2eNames = append(e2eNames, m.Name)
		d, ok := lookup(m.Name)
		if !ok || d.decl != e2e || d.unit != m.Unit || direction(d) != m.Better || d.bound != m.Bound {
			t.Errorf("end-to-end %+v disagrees with the harness's %+v", m, d)
		}
	}
	for _, m := range bf.PerLayer {
		layerNames = append(layerNames, m.Name)
		d, ok := lookup(m.Name)
		if !ok || d.decl != layer || d.unit != m.Unit || direction(d) != m.Better {
			t.Errorf("per-layer %+v disagrees with the harness's %+v", m, d)
		}
	}
	if len(e2eNames) != len(declared(e2e)) || len(layerNames) != len(declared(layer)) {
		t.Errorf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics, the harness %d and %d",
			len(e2eNames), len(layerNames), len(declared(e2e)), len(declared(layer)))
	}
}

// TestQuickEmitsEveryDeclaredMetric runs the smoke mode with a traced rep
// and checks that every workload reports every declared metric with its
// unit, in results.json and in the one-line result.
func TestQuickEmitsEveryDeclaredMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-trace", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("quick run exited %d:\n%s\n%s", code, stdout.String(), stderr.String())
	}
	res, err := readResults(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"trace.json", "layers.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Error(err)
		}
	}
	if len(res.Workloads) != len(bf.Workloads) {
		t.Fatalf("results have %d workloads, want %d", len(res.Workloads), len(bf.Workloads))
	}
	for _, wr := range res.Workloads {
		if wr.Failed != 0 || wr.OutputSHA256 == "" {
			t.Errorf("%s: %d failed reps, digest %q: %v", wr.Name, wr.Failed, wr.OutputSHA256, wr.Failures)
		}
		for _, m := range bf.EndToEnd {
			if s, ok := wr.Metrics[m.Name]; !ok || s.Unit != m.Unit || s.Median <= 0 {
				t.Errorf("%s: end-to-end %s missing, zero or in the wrong unit: %+v", wr.Name, m.Name, s)
			}
		}
		for _, m := range bf.PerLayer {
			if _, ok := wr.Traced[m.Name]; !ok {
				t.Errorf("%s: per-layer %s missing from the traced rep", wr.Name, m.Name)
			}
		}
		for _, trace := range []bool{false, true} {
			var line bytes.Buffer
			printDriverLine(&line, wr, trace)
			var got struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			want := declared(e2e)
			if trace {
				want = declared(layer)
			}
			if !got.Correct || got.Attempted != 2 || len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: result line %s", wr.Name, trace, line.String())
			}
			for _, name := range want {
				d, _ := lookup(name)
				if m, ok := got.Metrics[name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: %s missing or in the wrong unit", wr.Name, trace, name)
				}
			}
		}
	}
}
