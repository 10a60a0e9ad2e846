// Command ceems_bench regenerates the paper's evaluation artifacts: every
// figure, table and headline claim has an experiment (-list prints the
// index) that runs the real stack over the simulated platform and prints
// the corresponding table or panel. docs/BENCHMARKS.md covers the gated
// micro- and end-to-end benchmarks.
//
// Usage:
//
//	ceems_bench -list
//	ceems_bench -exp eq1
//	ceems_bench -exp all > report.txt
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
)

func main() {
	var (
		exp  = flag.String("exp", "", "experiment id, or 'all'")
		list = flag.Bool("list", false, "list experiment ids")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %s\n", id)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}
	ctx := context.Background()
	if *exp == "all" {
		if err := experiments.WriteAll(ctx, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	run, ok := experiments.Registry[*exp]
	if !ok {
		log.Fatalf("unknown experiment %q (use -list)", *exp)
	}
	res, err := run(ctx)
	if err != nil {
		log.Fatalf("experiment %s: %v", *exp, err)
	}
	fmt.Println(res.Text)
}
