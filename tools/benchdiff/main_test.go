package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sampleOutput = `
goos: linux
goarch: amd64
pkg: repro/internal/tsdb
BenchmarkWALAppend/wal-v1-8      3000000   405.0 ns/op   22.10 walbytes/sample   153 B/op   0 allocs/op
BenchmarkWALAppend/wal-v2-8      3500000   350.0 ns/op    5.40 walbytes/sample   160 B/op   0 allocs/op
BenchmarkWALReplay/v2-8                200   6500000 ns/op   7700000 samples/s
BenchmarkUnrelated-8             1000      12.0 ns/op
PASS
`

// multiRunOutput is what -count=3 produces: each benchmark repeated, every
// repetition one sample.
const multiRunOutput = `
BenchmarkWALAppend/wal-v1-8      3000000   400.0 ns/op   150 B/op   0 allocs/op
BenchmarkWALAppend/wal-v1-8      3000000   410.0 ns/op   153 B/op   0 allocs/op
BenchmarkWALAppend/wal-v1-8      3000000   405.0 ns/op   156 B/op   0 allocs/op
PASS
`

func TestParseBenchOutput(t *testing.T) {
	got := aggregate(parseBenchOutput(sampleOutput))
	v1 := got["BenchmarkWALAppend/wal-v1"]
	if v1 == nil {
		t.Fatalf("wal-v1 not parsed: %v", got)
	}
	if v1["ns_per_op"].Median != 405.0 || v1["walbytes_per_sample"].Median != 22.10 ||
		v1["bytes_per_op"].Median != 153 || v1["allocs_per_op"].Median != 0 {
		t.Fatalf("wal-v1 metrics wrong: %v", v1)
	}
	if v1["ns_per_op"].Runs != 1 {
		t.Fatalf("single run parsed as %d runs", v1["ns_per_op"].Runs)
	}
	if got["BenchmarkWALReplay/v2"]["samples_per_s"].Median != 7700000 {
		t.Fatalf("custom throughput metric not parsed: %v", got["BenchmarkWALReplay/v2"])
	}
}

func TestAggregateMultiRun(t *testing.T) {
	got := aggregate(parseBenchOutput(multiRunOutput))
	ns := got["BenchmarkWALAppend/wal-v1"]["ns_per_op"]
	if ns.Runs != 3 {
		t.Fatalf("runs = %d, want 3", ns.Runs)
	}
	if ns.Median != 405.0 {
		t.Fatalf("median = %v, want 405", ns.Median)
	}
	// Deviations from the 405 median are {5, 5, 0}; their median is 5.
	if ns.MAD != 5.0 {
		t.Fatalf("mad = %v, want 5", ns.MAD)
	}
	if b := got["BenchmarkWALAppend/wal-v1"]["bytes_per_op"]; b.Median != 153 || b.MAD != 3 {
		t.Fatalf("bytes stat = %+v, want median 153 mad 3", b)
	}
}

func TestLoadBaselinesAndDiff(t *testing.T) {
	dir := t.TempDir()
	baseline := `{
	  "description": "prose is ignored",
	  "benchmarks": {
	    "BenchmarkWALAppend": {
	      "v1": {"bench": "BenchmarkWALAppend/wal-v1", "ns_op": 405.0, "walbytes_per_sample": 22.1, "allocs_op": 0},
	      "v2": {"bench": "BenchmarkWALAppend/wal-v2", "ns_op": 250.0},
	      "historical": {"ns_op": 9999.0}
	    },
	    "BenchmarkWALReplay": {"v2": {"bench": "BenchmarkWALReplay/v2", "samples_per_s": 12000000}},
	    "gone": {"bench": "BenchmarkRemoved", "ns_op": 1.0}
	  }
	}`
	if err := os.WriteFile(filepath.Join(dir, "BENCH_x.json"), []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := loadBaselines(dir, "BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 4 {
		t.Fatalf("want 4 opted-in baselines, got %d: %v", len(base), base)
	}
	if _, ok := base["BenchmarkWALAppend/wal-v1"]; !ok {
		t.Fatal("bench key not honored")
	}
	// The default -bench pattern is the top-level names of those keys.
	if got, want := benchPattern(base), "^(BenchmarkRemoved|BenchmarkWALAppend|BenchmarkWALReplay)$"; got != want {
		t.Fatalf("benchPattern = %q, want %q", got, want)
	}

	g := gate{tol: 0.25, ciMult: 3, minDelta: 0.05}
	measured := aggregate(parseBenchOutput(sampleOutput))
	report, regressions, missing := diff(base, measured, g, nil)

	// Single-run measurements against bare-number baselines take the flat
	// 25% rule: wal-v1 within tolerance; wal-v2 350 vs 250 = +40% ns
	// regression; replay throughput 7.7M vs 12M baseline = -36% regression;
	// BenchmarkRemoved has no measurement — counted separately so a renamed
	// benchmark can never make the gate vacuous.
	if regressions != 2 {
		t.Fatalf("want 2 regressions, got %d:\n%s", regressions, report)
	}
	if missing != 1 {
		t.Fatalf("want 1 missing measurement, got %d:\n%s", missing, report)
	}
	for _, want := range []string{
		"REGRESSION  BenchmarkWALAppend/wal-v2",
		"REGRESSION  BenchmarkWALReplay/v2",
		"MISSING     BenchmarkRemoved",
	} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "REGRESSION  BenchmarkWALAppend/wal-v1") {
		t.Fatalf("wal-v1 flagged despite being within tolerance:\n%s", report)
	}

	// Restricting to hardware-stable metrics (the CI runner mode) drops
	// the two ns/throughput regressions; only missing stays.
	reportHW, regressionsHW, missingHW := diff(base, measured, g,
		map[string]bool{"bytes_per_op": true, "allocs_per_op": true, "walbytes_per_sample": true})
	if regressionsHW != 0 || missingHW != 1 {
		t.Fatalf("metric allowlist: want 0 regressions / 1 missing, got %d / %d:\n%s", regressionsHW, missingHW, reportHW)
	}
	if strings.Contains(reportHW, "ns_per_op") {
		t.Fatalf("allowlist did not filter ns_per_op:\n%s", reportHW)
	}

	// Zero-alloc baseline: a nonzero measurement is always a regression.
	measured["BenchmarkWALAppend/wal-v1"]["allocs_per_op"] = stat{Median: 3, Runs: 1}
	_, regressions, _ = diff(base, measured, g, nil)
	if regressions != 3 {
		t.Fatalf("0 -> 3 allocs/op not flagged: got %d regressions", regressions)
	}
}

// TestDispersedBaselines covers the {"median","mad","runs"} baseline shape
// end-to-end through loadBaselines.
func TestDispersedBaselines(t *testing.T) {
	dir := t.TempDir()
	baseline := `{
	  "results": {
	    "tight": {"bench": "BenchmarkTight", "ns_op": {"median": 100.0, "mad": 1.0, "runs": 5}},
	    "noisy": {"bench": "BenchmarkNoisy", "ns_op": {"median": 100.0, "mad": 15.0, "runs": 5}}
	  }
	}`
	if err := os.WriteFile(filepath.Join(dir, "BENCH_d.json"), []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := loadBaselines(dir, "BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	s := base["BenchmarkTight"].metrics["ns_per_op"]
	if s.Median != 100 || s.MAD != 1 || s.Runs != 5 {
		t.Fatalf("dispersed baseline parsed as %+v", s)
	}
}

// TestIntervalGate exercises the confidence-interval rule directly: a 30%
// regression on a tight benchmark fails, the same shift on a noisy one
// whose intervals overlap passes, and a 10% slip the flat 25% rule would
// wave through fails when both intervals are tight.
func TestIntervalGate(t *testing.T) {
	g := gate{tol: 0.25, ciMult: 3, minDelta: 0.05}
	tight := func(med float64) stat { return stat{Median: med, MAD: 1, Runs: 5} }
	noisy := func(med float64) stat { return stat{Median: med, MAD: 15, Runs: 5} }

	// 30%-regressed, tight on both sides: [97,103] vs [127,133] disjoint.
	if st, _ := compare("ns_per_op", tight(100), tight(130), g); st != "REGRESSION" {
		t.Fatalf("tight 30%% regression = %s, want REGRESSION", st)
	}
	// Same 30% shift on a noisy benchmark: [55,145] vs [85,175] overlap —
	// the baseline's own jitter explains the delta.
	if st, _ := compare("ns_per_op", noisy(100), noisy(130), g); st != "ok" {
		t.Fatalf("noisy 30%% shift = %s, want ok (intervals overlap)", st)
	}
	// 10% slip, tight: flat 25%% would pass it, the interval gate must not.
	if st, _ := compare("ns_per_op", tight(100), tight(110), g); st != "REGRESSION" {
		t.Fatalf("tight 10%% regression = %s, want REGRESSION", st)
	}
	// Shift below the min-delta floor never fails, even with zero MAD.
	exact := func(med float64) stat { return stat{Median: med, Runs: 5} }
	if st, _ := compare("ns_per_op", exact(100), exact(103), g); st != "ok" {
		t.Fatalf("3%% shift under min-delta = %s, want ok", st)
	}
	// Throughput polarity: lower samples/s is worse.
	if st, _ := compare("samples_per_s", tight(1000), tight(700), g); st != "REGRESSION" {
		t.Fatalf("throughput drop = %s, want REGRESSION", st)
	}
	if st, _ := compare("samples_per_s", tight(1000), tight(1300), g); st != "improved" {
		t.Fatalf("throughput gain = %s, want improved", st)
	}
	// Either side single-run: flat fallback (10% passes at 25% tolerance).
	if st, _ := compare("ns_per_op", stat{Median: 100, Runs: 1}, tight(110), g); st != "ok" {
		t.Fatalf("legacy baseline 10%% shift = %s, want ok under flat fallback", st)
	}
	if st, _ := compare("ns_per_op", stat{Median: 100, Runs: 1}, tight(140), g); st != "REGRESSION" {
		t.Fatalf("legacy baseline 40%% shift = %s, want REGRESSION under flat fallback", st)
	}
}

// TestIntervalGateEndToEnd drives the same rule through diff() with a
// synthetic measured run, the shape the nightly job sees.
func TestIntervalGateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	baseline := `{
	  "a": {"bench": "BenchmarkA", "ns_op": {"median": 1000.0, "mad": 10.0, "runs": 5}},
	  "b": {"bench": "BenchmarkB", "ns_op": {"median": 1000.0, "mad": 200.0, "runs": 5}}
	}`
	if err := os.WriteFile(filepath.Join(dir, "BENCH_e.json"), []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := loadBaselines(dir, "BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	// Both benchmarks measure 30% slower across 3 runs; A is tight, B's
	// baseline jitter swallows it.
	run := `
BenchmarkA-8  100  1290.0 ns/op
BenchmarkA-8  100  1300.0 ns/op
BenchmarkA-8  100  1310.0 ns/op
BenchmarkB-8  100  1290.0 ns/op
BenchmarkB-8  100  1300.0 ns/op
BenchmarkB-8  100  1310.0 ns/op
`
	report, regressions, missing := diff(base, aggregate(parseBenchOutput(run)), gate{tol: 0.25, ciMult: 3, minDelta: 0.05}, nil)
	if regressions != 1 || missing != 0 {
		t.Fatalf("want exactly the tight benchmark to regress, got %d regressions / %d missing:\n%s", regressions, missing, report)
	}
	if !strings.Contains(report, "REGRESSION  BenchmarkA") {
		t.Fatalf("BenchmarkA not flagged:\n%s", report)
	}
	if strings.Contains(report, "REGRESSION  BenchmarkB") {
		t.Fatalf("BenchmarkB flagged despite overlapping intervals:\n%s", report)
	}
}

// The derived pattern must select every benchmark the committed baselines
// gate and none of their name-sharing neighbours (BenchmarkAppend is not
// BenchmarkAppendFamily).
func TestBenchPatternCoversCommittedBaselines(t *testing.T) {
	base, err := loadBaselines("../..", "BENCH_*.json")
	if err != nil || len(base) == 0 {
		t.Fatalf("loading the repo's baselines: %d entries, err %v", len(base), err)
	}
	re, err := regexp.Compile(benchPattern(base))
	if err != nil {
		t.Fatal(err)
	}
	for name := range base {
		if top, _, _ := strings.Cut(name, "/"); !re.MatchString(top) {
			t.Errorf("pattern %s misses baseline %s", re, name)
		}
	}
	if re.MatchString("BenchmarkAppend") || re.MatchString("BenchmarkWALAppendX") {
		t.Errorf("pattern %s is not anchored", re)
	}
}
