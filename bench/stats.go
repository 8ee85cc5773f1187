package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// stat summarizes one metric over the reps of a workload.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) stat {
	q1, med, q3 := quartiles(values)
	return stat{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(values), Values: values}
}

// spread is the q1–q3 distance as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		if s.Q3 == s.Q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// quartiles returns the first quartile, median and third quartile of
// values by the exclusive method, the default of Python's
// statistics.quantiles, so the spread printed here is the one an outside
// check computes from the same values.
func quartiles(values []float64) (q1, med, q3 float64) {
	switch len(values) {
	case 0:
		return 0, 0, 0
	case 1:
		return values[0], values[0], values[0]
	}
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	return q(1), med, q(3)
}

// percentile returns the p-th percentile of values by linear
// interpolation between closest ranks.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	pos := p / 100 * float64(len(d)-1)
	lo := int(pos)
	if lo >= len(d)-1 {
		return d[len(d)-1]
	}
	return d[lo] + (pos-float64(lo))*(d[lo+1]-d[lo])
}

// tailPercentile returns the highest of p50, p90, p99 and p99.9 that has at
// least ten of n samples beyond it, or 0 when none has. A percentile with
// fewer samples beyond it is set by a handful of outliers.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, permille := range []int{500, 900, 990, 999} {
		if n*(1000-permille) >= 10*1000 {
			best = float64(permille) / 10
		}
	}
	return best
}

// Verdicts of -compare.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// judge compares one metric of a workload between a base and a new run.
// A host metric is worse or better when its median moved by more than the
// bound; when either run's q1–q3 spread exceeds the bound the verdict is
// unresolved, unless every new value reads better than every base value.
// A simulated metric must repeat exactly, so any change is a verdict.
func judge(d metricDef, base, cur stat) string {
	gain := cur.Median - base.Median
	if !d.higher {
		gain = -gain
	}
	if base.Median != 0 {
		gain /= math.Abs(base.Median)
	}
	if d.class == simulated {
		switch {
		case gain > 0:
			return better
		case gain < 0:
			return worse
		}
		return unchanged
	}
	if math.Max(base.spread(), cur.spread()) > d.bound {
		if allBetter(d, base.Values, cur.Values) {
			return better
		}
		return unresolved
	}
	switch {
	case gain > d.bound:
		return better
	case gain < -d.bound:
		return worse
	}
	return unchanged
}

func allBetter(d metricDef, base, cur []float64) bool {
	if len(base) == 0 || len(cur) == 0 {
		return false
	}
	for _, c := range cur {
		for _, b := range base {
			if (d.higher && c <= b) || (!d.higher && c >= b) {
				return false
			}
		}
	}
	return true
}

// compare prints a verdict for every workload × metric the two results
// share and returns how many read worse. Profile shares are not judged.
func compare(base, cur *results, w io.Writer) (worseCount int) {
	baseByName := map[string]workloadResult{}
	for _, wr := range base.Workloads {
		baseByName[wr.Name] = wr
	}
	for _, cw := range cur.Workloads {
		bw, ok := baseByName[cw.Name]
		if !ok {
			fmt.Fprintf(w, "%-16s only in the new results\n", cw.Name)
			continue
		}
		for _, name := range sortedKeys(cw.Metrics) {
			bs, ok := bw.Metrics[name]
			d, known := lookup(name)
			if !ok || !known || d.class == profile {
				continue
			}
			cs := cw.Metrics[name]
			v := judge(d, bs, cs)
			if v == worse {
				worseCount++
			}
			fmt.Fprintf(w, "%-16s %-28s %12.6g -> %-12.6g %s  %s\n",
				cw.Name, name, bs.Median, cs.Median, cs.Unit, v)
		}
		if bw.OutputSHA256 != cw.OutputSHA256 {
			fmt.Fprintf(w, "%-16s %-28s simulated output differs\n", cw.Name, "output_sha256")
		}
	}
	return worseCount
}
