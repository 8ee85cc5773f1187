package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// span is one harness-side call into a layer. Parent indexes the rep's
// span list; -1 marks a root.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Parent int     `json:"parent"`
}

// tracer times the harness's calls into the layers. It always measures;
// it keeps spans only when on, which is only in the traced rep.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int
}

// begin starts timing a call and returns the function that ends it and
// returns its duration in seconds. Calls must end in reverse order.
func (t *tracer) begin(name string) func() float64 {
	start := time.Now()
	idx := -1
	if t.on {
		parent := -1
		if len(t.open) > 0 {
			parent = t.open[len(t.open)-1]
		}
		idx = len(t.spans)
		t.spans = append(t.spans, span{Name: name, Start: t.us(start), Parent: parent})
		t.open = append(t.open, idx)
	}
	return func() float64 {
		end := time.Now()
		if idx >= 0 {
			t.spans[idx].End = t.us(end)
			t.open = t.open[:len(t.open)-1]
		}
		return end.Sub(start).Seconds()
	}
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

// spanStat totals the spans of one name. Self time is the duration minus
// the part covered by child spans.
type spanStat struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func summarizeSpans(spans []span) map[string]spanStat {
	child := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]spanStat{}
	for i, s := range spans {
		st := out[s.Name]
		st.Count++
		st.TotalS += (s.End - s.Start) / 1e6
		st.SelfS += (s.End - s.Start - child[i]) / 1e6
		out[s.Name] = st
	}
	return out
}

// writeChromeTrace writes the traced reps' spans as a Chrome trace (load
// it in chrome://tracing or Perfetto): one process per workload.
func writeChromeTrace(path string, names []string, spans [][]span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	for pid, ss := range spans {
		events = append(events, event{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": names[pid]}})
		for _, s := range ss {
			args := map[string]any{}
			if s.Parent >= 0 {
				args["parent"] = ss[s.Parent].Name
			}
			events = append(events, event{Name: s.Name, Ph: "X", Ts: s.Start, Dur: s.End - s.Start,
				Pid: pid, Args: args})
		}
	}
	return writeJSON(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// foldProfile reads a CPU profile through `go tool pprof -traces` and
// returns the cpu.* self-time and cum.* cumulative shares in percent.
func foldProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", path, err, errb.String())
	}
	return foldTraces(&out)
}

// foldTraces folds `pprof -traces` text output. Each block after a
// separator line is one stack: its first line holds the sample's time and
// innermost frame, the following lines the callers.
func foldTraces(r io.Reader) (map[string]float64, error) {
	self := map[string]float64{}
	cum := map[string]float64{}
	var total, weight float64
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			total += weight
			self[classify(stack)] += weight
			for _, c := range cumFuncs {
				for _, f := range stack {
					if strings.TrimPrefix(f, modulePrefix) == c.fn {
						cum[c.key] += weight
						break
					}
				}
			}
		}
		weight, stack = 0, stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inSamples := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			inSamples = true
		case !inSamples || line == "":
		case len(stack) == 0:
			value, frame, _ := strings.Cut(line, " ")
			d, err := time.ParseDuration(value)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			weight = d.Seconds()
			stack = append(stack, trimFrame(frame))
		default:
			stack = append(stack, trimFrame(line))
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: profile has no samples")
	}
	out := map[string]float64{}
	for _, p := range cpuPackages {
		out["cpu."+p] = 100 * self[p] / total
	}
	for _, c := range cumFuncs {
		out["cum."+c.key] = 100 * cum[c.key] / total
	}
	return out, nil
}

const modulePrefix = "github.com/holmes-colocation/holmes/internal/"

func trimFrame(f string) string {
	return strings.TrimSuffix(strings.TrimSpace(f), " (inline)")
}

// classify picks the self-time bucket of one stack, innermost frame first.
// Garbage collection and allocation are runtime buckets of their own;
// otherwise the innermost repository package claims the sample, so a
// standard-library helper counts for the package that called it.
// Repository packages without a bucket of their own, and stacks with no
// repository frame, count as "other".
func classify(stack []string) string {
	for _, f := range stack {
		for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
			"runtime.markroot", "runtime.sweepone", "runtime.scanobject"} {
			if strings.HasPrefix(f, p) {
				return "runtime_gc"
			}
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.mallocgc") {
			return "runtime_alloc"
		}
	}
	for _, f := range stack {
		rest, ok := strings.CutPrefix(f, modulePrefix)
		if !ok {
			continue
		}
		pkg := rest[:strings.IndexAny(rest+".", "./")]
		switch pkg {
		case "hpe", "perf":
			return "hpe_perf"
		}
		for _, p := range cpuPackages {
			if p == pkg {
				return pkg
			}
		}
		return "other"
	}
	return "other"
}
