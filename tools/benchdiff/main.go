// Command benchdiff is the benchmark-regression gate: it runs the repo's
// benchmark suite (or parses a pre-recorded `go test -bench` output) and
// compares every measurement against the committed BENCH_*.json baselines,
// failing when a metric regressed beyond what measurement noise explains.
//
// Baselines opt in per entry with an explicit "bench" key naming the
// benchmark exactly as `go test` prints it (minus the -GOMAXPROCS suffix),
// e.g. {"bench": "BenchmarkWALAppend/wal-v2", "ns_op": 310, ...}. Entries
// without a "bench" key (prose, shapes, historical "before" numbers) are
// ignored, so the JSON files stay free-form documents.
//
// Metric values come in two shapes:
//
//   - a bare number ("ns_op": 405.0) — a legacy single-run value with
//     unknown dispersion; it is gated with the flat -tolerance rule;
//   - an object ("ns_op": {"median": 405.0, "mad": 2.3, "runs": 5}) — the
//     median of `runs` repetitions with its median-absolute-deviation.
//
// When BOTH sides carry dispersion (baseline recorded with runs > 1 and
// benchdiff invoked with -count > 1), the gate is confidence-interval
// overlap instead of a blunt percentage: each side spans median ±
// ci-mult×MAD, and a metric only fails when the two intervals are disjoint
// in the worse direction AND the median moved more than -min-delta. A tight
// benchmark therefore catches a 10% slip that a 25% tolerance would wave
// through, while a noisy one is not failed for jitter its own baseline
// already exhibited. Either side lacking dispersion falls back to the flat
// -tolerance comparison on medians.
//
// Metric keys are canonicalized (ns_op == ns_per_op == "ns/op", bytes_op ==
// "B/op", allocs_op == "allocs/op"; custom b.ReportMetric units map by
// replacing "/" with "_per_", so "walbytes/sample" matches a baseline key
// "walbytes_per_sample"). Only metrics present on BOTH sides are compared.
// Metrics named *_per_s are throughputs (higher is better); everything else
// is a cost (lower is better).
//
// Usage:
//
//	go run ./tools/benchdiff -count 5             # run 5x + compare (slow)
//	go run ./tools/benchdiff -input bench.txt     # compare a recorded run
//	go run ./tools/benchdiff -count 5 -emit-stats # print medians/MADs for re-recording baselines
//
// Exit status: 0 = no regressions, 1 = at least one regression, 2 = usage
// or execution error. Wired as `make benchdiff` and the nightly
// .github/workflows/bench.yml job (non-required; uploads the report as an
// artifact).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		baselines = flag.String("baselines", "BENCH_*.json", "glob of baseline JSON files (relative to -dir)")
		dir       = flag.String("dir", ".", "repo root holding the baseline files")
		bench     = flag.String("bench", "", "benchmark regexp passed to go test -bench; empty derives it from the baselines' \"bench\" keys, so every gated benchmark runs and nothing else does")
		pkgs      = flag.String("pkgs", "./...", "space-separated packages to benchmark")
		benchtime = flag.String("benchtime", "2s", "benchtime passed to go test")
		count     = flag.Int("count", 1, "benchmark repetitions (go test -count); > 1 yields medians with dispersion and enables the interval gate")
		tolerance = flag.Float64("tolerance", 0.25, "fallback flat tolerance when either side lacks dispersion (0.25 = 25%)")
		ciMult    = flag.Float64("ci-mult", 3, "half-width multiplier: each side's interval is median ± ci-mult×MAD")
		minDelta  = flag.Float64("min-delta", 0.05, "median shift below this relative floor never fails, however tight the intervals (guards zero-MAD metrics)")
		input     = flag.String("input", "", "parse this pre-recorded `go test -bench` output instead of running")
		out       = flag.String("out", "", "also write the report to this file")
		emitStats = flag.Bool("emit-stats", false, "print the measured {median, mad, runs} per benchmark as JSON and exit (for re-recording baselines)")
		metrics   = flag.String("metrics", "", "comma-separated allowlist of canonical metrics to compare (e.g. bytes_per_op,allocs_per_op,walbytes_per_sample); empty compares all. Use the allowlist on CI runners whose hardware differs from the machine that recorded the baselines — absolute ns/op does not travel across boxes, byte and alloc counts do")
	)
	flag.Parse()
	var allow map[string]bool
	if *metrics != "" {
		allow = map[string]bool{}
		for _, m := range strings.Split(*metrics, ",") {
			allow[canonicalMetric(strings.TrimSpace(m))] = true
		}
	}

	base, err := loadBaselines(*dir, *baselines)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if len(base) == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: no baseline entries with a \"bench\" key found under %s/%s\n", *dir, *baselines)
		os.Exit(2)
	}

	var output []byte
	if *input != "" {
		output, err = os.ReadFile(*input)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
	} else {
		if *bench == "" {
			*bench = benchPattern(base)
		}
		args := []string{"test", "-run", "^$", "-bench", *bench, "-benchtime", *benchtime, "-count", strconv.Itoa(*count), "-benchmem"}
		args = append(args, strings.Fields(*pkgs)...)
		cmd := exec.Command("go", args...)
		cmd.Dir = *dir
		cmd.Stderr = os.Stderr
		output, err = cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: go test -bench failed: %v\n%s\n", err, output)
			os.Exit(2)
		}
	}
	measured := aggregate(parseBenchOutput(string(output)))

	if *emitStats {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(measured); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		return
	}

	report, regressions, missing := diff(base, measured, gate{tol: *tolerance, ciMult: *ciMult, minDelta: *minDelta}, allow)
	fmt.Print(report)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: write %s: %v\n", *out, err)
			os.Exit(2)
		}
	}
	// A baseline with no measurement fails the gate too: a renamed or
	// filtered-out benchmark would otherwise turn it silently vacuous —
	// the exact rot this tool exists to catch. Narrow comparisons are
	// still possible; prune or rename the baseline entry alongside the
	// benchmark.
	if regressions > 0 || missing > 0 {
		os.Exit(1)
	}
}

// stat is one metric's value with its measurement spread: the median of
// Runs repetitions and their median absolute deviation. Runs <= 1 (legacy
// bare-number baselines, single-run measurements) means the dispersion is
// unknown and only the flat-tolerance gate applies.
type stat struct {
	Median float64 `json:"median"`
	MAD    float64 `json:"mad"`
	Runs   int     `json:"runs"`
}

// gate bundles the comparison knobs.
type gate struct {
	tol      float64 // flat fallback tolerance
	ciMult   float64 // interval half-width = ciMult * MAD
	minDelta float64 // median-shift floor below which nothing fails
}

// baselineEntry is one opted-in benchmark baseline: canonical metric name ->
// expected stat.
type baselineEntry struct {
	file    string
	metrics map[string]stat
}

// loadBaselines extracts every object carrying a "bench" key from the
// matching JSON files, walking arbitrarily nested documents.
func loadBaselines(dir, glob string) (map[string]baselineEntry, error) {
	files, err := filepath.Glob(filepath.Join(dir, glob))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	out := map[string]baselineEntry{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var doc any
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		collectBaselines(doc, filepath.Base(f), out)
	}
	return out, nil
}

func collectBaselines(v any, file string, out map[string]baselineEntry) {
	switch node := v.(type) {
	case map[string]any:
		if name, ok := node["bench"].(string); ok {
			entry := baselineEntry{file: file, metrics: map[string]stat{}}
			for k, raw := range node {
				if s, ok := parseStat(raw); ok {
					entry.metrics[canonicalMetric(k)] = s
				}
			}
			if len(entry.metrics) > 0 {
				out[name] = entry
			}
		}
		for _, child := range node {
			collectBaselines(child, file, out)
		}
	case []any:
		for _, child := range node {
			collectBaselines(child, file, out)
		}
	}
}

// benchPattern is the -bench regexp that runs exactly the gated benchmarks:
// the top-level name of every baseline entry, anchored (go test matches the
// pattern's "/"-separated elements level by level; an absent element
// matches every sub-benchmark).
func benchPattern(base map[string]baselineEntry) string {
	tops := map[string]bool{}
	for name := range base {
		top, _, _ := strings.Cut(name, "/")
		tops[regexp.QuoteMeta(top)] = true
	}
	return "^(" + strings.Join(slices.Sorted(maps.Keys(tops)), "|") + ")$"
}

// parseStat accepts the two baseline value shapes: a bare number (legacy,
// single run, unknown spread) or a {"median": ..., "mad": ..., "runs": ...}
// object.
func parseStat(raw any) (stat, bool) {
	switch val := raw.(type) {
	case float64:
		return stat{Median: val, Runs: 1}, true
	case map[string]any:
		med, ok := val["median"].(float64)
		if !ok {
			return stat{}, false
		}
		s := stat{Median: med, Runs: 1}
		if mad, ok := val["mad"].(float64); ok {
			s.MAD = mad
		}
		if runs, ok := val["runs"].(float64); ok {
			s.Runs = int(runs)
		}
		return s, true
	}
	return stat{}, false
}

// canonicalMetric maps the spelling zoo (ns_op / ns_per_op / "ns/op",
// bytes_op / "B/op", custom ReportMetric units) onto one namespace.
func canonicalMetric(k string) string {
	switch k {
	case "ns_op", "ns/op":
		return "ns_per_op"
	case "bytes_op", "B/op":
		return "bytes_per_op"
	case "allocs_op", "allocs/op":
		return "allocs_per_op"
	}
	return strings.ReplaceAll(k, "/", "_per_")
}

// higherIsBetter reports whether a canonical metric is a throughput.
func higherIsBetter(metric string) bool {
	return strings.HasSuffix(metric, "_per_s")
}

var benchLineRe = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseBenchOutput extracts per-benchmark canonical metric samples from
// `go test -bench` output; with -count > 1 each benchmark contributes one
// sample per repetition.
func parseBenchOutput(out string) map[string]map[string][]float64 {
	res := map[string]map[string][]float64{}
	for _, line := range strings.Split(out, "\n") {
		m := benchLineRe.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := m[1]
		fields := strings.Fields(m[2])
		samples := res[name]
		if samples == nil {
			samples = map[string][]float64{}
			res[name] = samples
		}
		for i := 0; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			k := canonicalMetric(fields[i+1])
			samples[k] = append(samples[k], val)
		}
	}
	for name, samples := range res {
		empty := true
		for _, v := range samples {
			if len(v) > 0 {
				empty = false
			}
		}
		if empty {
			delete(res, name)
		}
	}
	return res
}

// aggregate reduces raw samples to median + MAD per metric.
func aggregate(samples map[string]map[string][]float64) map[string]map[string]stat {
	out := map[string]map[string]stat{}
	for name, metrics := range samples {
		agg := map[string]stat{}
		for m, vals := range metrics {
			if len(vals) == 0 {
				continue
			}
			med := median(vals)
			devs := make([]float64, len(vals))
			for i, v := range vals {
				devs[i] = math.Abs(v - med)
			}
			agg[m] = stat{Median: med, MAD: median(devs), Runs: len(vals)}
		}
		if len(agg) > 0 {
			out[name] = agg
		}
	}
	return out
}

// median returns the middle value (mean of the middle two for even n)
// without mutating its input.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// compare gates one metric. rel is the relative change in the "worse"
// direction (positive = regressed), whatever the metric's polarity.
func compare(metric string, base, got stat, g gate) (status string, rel float64) {
	if base.Median == 0 {
		// 0 -> nonzero cost (e.g. allocs/op) is always a regression; a zero
		// or any throughput stays ok (nothing meaningful to divide by).
		if got.Median != 0 && !higherIsBetter(metric) {
			return "REGRESSION", math.Inf(1)
		}
		return "ok", 0
	}
	if higherIsBetter(metric) {
		rel = (base.Median - got.Median) / base.Median
	} else {
		rel = (got.Median - base.Median) / base.Median
	}
	if base.Runs > 1 && got.Runs > 1 {
		// Interval gate: fail only when the two median±ciMult×MAD spans are
		// disjoint in the worse direction and the shift clears the floor.
		baseLo, baseHi := base.Median-g.ciMult*base.MAD, base.Median+g.ciMult*base.MAD
		gotLo, gotHi := got.Median-g.ciMult*got.MAD, got.Median+g.ciMult*got.MAD
		worse, better := gotLo > baseHi, gotHi < baseLo
		if higherIsBetter(metric) {
			worse, better = gotHi < baseLo, gotLo > baseHi
		}
		switch {
		case worse && rel > g.minDelta:
			return "REGRESSION", rel
		case better && rel < -g.minDelta:
			return "improved", rel
		}
		return "ok", rel
	}
	// Legacy flat tolerance: one side has no dispersion to reason with.
	switch {
	case rel > g.tol:
		return "REGRESSION", rel
	case rel < -g.tol:
		return "improved", rel
	}
	return "ok", rel
}

// fmtStat renders "405±2.1(n5)" for dispersed values, a bare number for
// single-run ones.
func fmtStat(s stat) string {
	if s.Runs > 1 {
		return fmt.Sprintf("%.6g±%.3g(n%d)", s.Median, s.MAD, s.Runs)
	}
	return fmt.Sprintf("%.6g", s.Median)
}

// diff renders the comparison report, counting regressions and baselines
// that produced no measurement at all. A non-nil allow set restricts which
// canonical metrics are compared.
func diff(base map[string]baselineEntry, measured map[string]map[string]stat, g gate, allow map[string]bool) (string, int, int) {
	var b strings.Builder
	regressions, missing := 0, 0
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "benchdiff: interval gate median±%.3g×MAD (min-delta %.0f%%), flat fallback %.0f%%\n\n",
		g.ciMult, g.minDelta*100, g.tol*100)
	for _, name := range names {
		entry := base[name]
		got, ok := measured[name]
		if !ok {
			fmt.Fprintf(&b, "MISSING     %-50s no measurement (baseline in %s)\n", name, entry.file)
			missing++
			continue
		}
		metrics := make([]string, 0, len(entry.metrics))
		for m := range entry.metrics {
			if allow != nil && !allow[m] {
				continue
			}
			if _, ok := got[m]; ok {
				metrics = append(metrics, m)
			}
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			want, have := entry.metrics[m], got[m]
			status, rel := compare(m, want, have, g)
			if status == "REGRESSION" {
				regressions++
			}
			fmt.Fprintf(&b, "%-11s %-50s %-22s base=%-20s got=%-20s delta=%+.1f%%\n",
				status, name, m, fmtStat(want), fmtStat(have), signedDelta(rel, m))
		}
	}
	var extras []string
	for name := range measured {
		if _, ok := base[name]; !ok {
			extras = append(extras, name)
		}
	}
	sort.Strings(extras)
	if len(extras) > 0 {
		fmt.Fprintf(&b, "\nmeasured without baseline (informational): %s\n", strings.Join(extras, ", "))
	}
	fmt.Fprintf(&b, "\n%d regression(s), %d missing measurement(s)\n", regressions, missing)
	return b.String(), regressions, missing
}

// signedDelta reports the user-facing percentage change in the metric's own
// direction (positive = got bigger), independent of better/worse.
func signedDelta(rel float64, metric string) float64 {
	if higherIsBetter(metric) {
		return -rel * 100
	}
	return rel * 100
}
