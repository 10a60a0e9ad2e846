package main

import (
	"context"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// holds the harness to BENCHMARK.json: every declared metric is emitted
// exactly once (report.put panics on a second emission), nothing
// undeclared is emitted, and the contract's limits hold — so the JSON and
// the harness cannot drift apart.
func TestSmoke(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	declared := map[bool]map[string]metricSpec{false: {}, true: {}}
	seen := map[string]bool{}
	for traced, list := range map[bool][]metricSpec{false: spec.EndToEnd, true: spec.PerLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("bad or repeated metric declaration %+v", m)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if !traced && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
			seen[m.Name] = true
			declared[traced][m.Name] = m
		}
	}
	if m, ok := declared[false]["setup_s"]; !ok || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(spec.Workloads), len(workloadNames))
	}
	if spec.RunSeconds != calibratedSeconds {
		t.Errorf("run_seconds %d, harness calibrated for %d", spec.RunSeconds, calibratedSeconds)
	}

	for i, wl := range spec.Workloads {
		if wl.Name != workloadNames[i] || seen[wl.Name] || len(wl.Why) == 0 || len(wl.Why) > 200 {
			t.Errorf("workload %d: %+v (harness has %q)", i, wl, workloadNames[i])
		}
		for _, traced := range []bool{false, true} {
			sc, err := scenarioFor(wl.Name, 7, spec.RunSeconds, true)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := run(context.Background(), sc, spec.RunSeconds, traced, t.TempDir(), t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d checks=%+v",
					wl.Name, traced, rep.Correct, rep.Failed, rep.Attempted, rep.Checks)
			}
			for name, m := range rep.Metrics {
				d, ok := declared[traced][name]
				if !ok {
					t.Errorf("%s traced=%v: emits undeclared metric %s", wl.Name, traced, name)
				} else if d.Unit != m.Unit {
					t.Errorf("%s: unit %q, declared %q", name, m.Unit, d.Unit)
				}
			}
			for name := range declared[traced] {
				m, ok := rep.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: declared metric %s not emitted", wl.Name, traced, name)
				} else if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", wl.Name, name, m.Value)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles = %v, %v; want 1, 3", q1, q3)
	}
}
