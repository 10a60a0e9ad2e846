package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is what the harness reads of BENCHMARK.json.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is how
// the benchmark's acceptance spread is defined.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	return ratio(q3-q1, trueMedian(vals))
}

// trueMedian averages the middle pair of an even-sized set, as Python's
// statistics.median does.
func trueMedian(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func readReports(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var all []*report
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string][]float64{}
	for _, r := range all {
		if r.Trace {
			continue
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: run of %s (seed %d) was not correct", path, r.Workload, r.Seed)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, nil
}

// compareFiles prints one row per (workload, end-to-end metric): the median
// of each file's runs, how much worse the second is, the metric's bound and
// the first file's run-to-run spread. It reports whether any row is beyond
// its bound.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readReports(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReports(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-17s %-24s %13s %13s %8s %6s %8s\n", "workload", "metric", "a", "b", "worse", "bound", "spread_a")
	anyWorse := false
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := trueMedian(va), trueMedian(vb)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > m.Bound {
				mark, anyWorse = "  BEYOND BOUND", true
			}
			fmt.Fprintf(w, "%-17s %-24s %13.6g %13.6g %+7.1f%% %5.0f%% %7.1f%%%s\n",
				wl.Name, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*spread(va), mark)
		}
	}
	return anyWorse, nil
}
