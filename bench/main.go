// Command bench is the repository's canonical end-to-end benchmark: it wires
// the whole CEEMS stack in one process, drives one of four fleet workloads
// through it on a virtual clock, checks the outputs, and prints every metric
// by name with its unit. BENCHMARK.json at the repository root declares the
// workloads, metrics, units, directions and regression bounds; README.md in
// this directory explains them.
//
//	go run ./bench -workload dash_cold -seed 1            # end-to-end metrics
//	go run ./bench -workload dash_cold -seed 1 -trace 1   # per-layer metrics
//	go run ./bench -workload all -seed 1 -out a.json      # full set, appended to a.json
//	go run ./bench -compare a.json b.json                 # before/after table
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: ingest_churn, dash_cold, dash_refresh, longrange_blocks, or all")
		seed     = flag.Int64("seed", 1, "seed of every random choice: job mix, dashboard-open order, backfill noise")
		seconds  = flag.Int("seconds", calibratedSeconds, "run length the fixed work is scaled for (BENCHMARK.json run_seconds)")
		trace    = flag.Int("trace", 0, "1 = traced run: stages driven serially, spans recorded, per-layer metrics printed")
		out      = flag.String("out", "", "append each run's full report (metrics, inputs, checks) to this JSON file")
		workDir  = flag.String("work-dir", ".bench_tmp", "directory for the run's WAL and block files; removed afterwards")
		traceDir = flag.String("trace-dir", ".bench_out", "directory for the traced run's spans and attribution table")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments; exits 1 if a metric is beyond its bound")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two report files"))
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || *seconds > 60 {
		fatal(fmt.Errorf("-seconds must be between 1 and 60"))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	for _, name := range names {
		sc, err := scenarioFor(name, *seed, *seconds, false)
		if err != nil {
			fatal(err)
		}
		dir := filepath.Join(*workDir, fmt.Sprintf("run-%d", os.Getpid()))
		rep, err := run(context.Background(), sc, *seconds, *trace == 1, dir, *traceDir)
		_ = os.RemoveAll(dir)
		_ = os.Remove(*workDir) // only when empty: another run may be using it
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		if rep.attribution != "" {
			path := filepath.Join(*traceDir, "attribution-"+name+".txt")
			if err := os.WriteFile(path, []byte(rep.attribution), 0o644); err != nil {
				fatal(err)
			}
			fmt.Print(rep.attribution)
		}
		printReport(rep)
		if *out != "" {
			if err := appendReport(*out, rep); err != nil {
				fatal(err)
			}
		}
		// The last line of a run is the result the driver reads.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// printReport lists the inputs, every check and every metric with its unit.
func printReport(rep *report) {
	in := rep.Inputs
	fmt.Printf("workload %s seed %d trace %v: measured phase %.1f s of CPU in %.1f s of wall, machine slowdown %.2f (median)\n",
		rep.Workload, rep.Seed, rep.Trace, rep.PhaseCPUS, rep.PhaseS, rep.Slowdown)
	fmt.Printf("inputs: %d nodes, %d ticks, %d jobs submitted, %d head series, %d requests (digest %s), %d client(s)\n",
		in.Nodes, in.IngestTicks, in.JobsSubmitted, in.HeadSeries, in.Requests, in.RequestDigest, in.Clients)
	fmt.Printf("environment: nproc %d, %s, WAL %s\n", in.NProc, in.GoVersion, in.WALFlush)
	passed := map[string]int{}
	for _, c := range rep.Checks {
		if c.OK {
			passed[c.Name]++
		} else {
			fmt.Printf("check FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	for _, name := range sortedKeys(passed) {
		fmt.Printf("check ok     %s (%d)\n", name, passed[name])
	}
	for _, name := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[name]
		fmt.Printf("%-36s %16.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("attempted %d failed %d correct %v\n", rep.Attempted, rep.Failed, rep.Correct)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// appendReport adds the report to the JSON array in path.
func appendReport(path string, rep *report) error {
	var all []*report
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	data, err := json.MarshalIndent(append(all, rep), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
