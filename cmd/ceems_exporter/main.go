// Command ceems_exporter runs the CEEMS exporter on a simulated compute
// node: the node hardware (RAPL, IPMI, cgroups, optional GPUs) advances in
// real time with synthetic workloads, and the exporter serves /metrics
// over HTTP exactly as it would on a production node.
//
// Usage:
//
//	ceems_exporter -listen :9100 -class intel -workloads 4
//	ceems_exporter -listen :9100 -class gpuinc -auth-user ceems -auth-pass secret
//	ceems_exporter -config ceems.yaml -node n1      # the file's exporter section
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/config"
	"repro/internal/exporter"
	"repro/internal/gpusim"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/serve"
)

func main() {
	// These three steer one simulated node; the deployment settings are the
	// exporter section of the configuration.
	var (
		class     = flag.String("class", "intel", "node class: intel, amd, gpuinc, gpuexc")
		nodeName  = flag.String("node", "node0", "node name")
		workloads = flag.Int("workloads", 4, "synthetic workloads to run")
	)
	cfg, err := config.ForCommand("ceems_exporter", flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	srv := &serve.Server{Name: "metrics", Addr: cfg.Exporter.Listen}
	if err := serve.Bind(srv); err != nil {
		log.Fatal(err)
	}

	var spec hw.NodeSpec
	switch *class {
	case "intel":
		spec = hw.DefaultIntelSpec(*nodeName)
	case "amd":
		spec = hw.DefaultAMDSpec(*nodeName)
	case "gpuinc":
		spec = hw.DefaultGPUSpec(*nodeName, true, model.GPUA100, model.GPUA100, model.GPUA100, model.GPUA100)
	case "gpuexc":
		spec = hw.DefaultGPUSpec(*nodeName, false, model.GPUA100, model.GPUA100, model.GPUA100, model.GPUA100)
	default:
		fmt.Fprintf(os.Stderr, "unknown class %q\n", *class)
		os.Exit(2)
	}
	node, err := hw.NewNode(spec, time.Now())
	if err != nil {
		log.Fatalf("node: %v", err)
	}
	// Synthetic workloads keep the counters moving.
	for i := 0; i < *workloads; i++ {
		util := 0.3 + 0.15*float64(i%4)
		w := &hw.Workload{
			ID:       fmt.Sprintf("job_%d", i+1),
			CPUs:     spec.TotalCPUs() / (*workloads + 1),
			MemLimit: spec.MemBytes / int64(*workloads+1),
			CPUUtil:  func(time.Duration) float64 { return util },
		}
		if len(spec.GPUs) > 0 && i < len(spec.GPUs) {
			w.GPUOrdinals = []int{i}
			w.GPUUtil = func(time.Duration) float64 { return util + 0.2 }
		}
		if err := node.AddWorkload(w); err != nil {
			log.Fatalf("workload: %v", err)
		}
	}
	cols := []exporter.Collector{
		&exporter.CgroupCollector{FS: node.FS, Layout: exporter.SlurmLayout()},
		&exporter.RAPLCollector{FS: node.FS},
		&exporter.IPMICollector{Reader: node},
		&exporter.NodeCollector{FS: node.FS},
	}
	if len(spec.GPUs) > 0 {
		cols = append(cols, &gpusim.DCGMCollector{Hostname: spec.Name, Devices: node})
	}
	exp := exporter.New(cols...)
	exp.Username = cfg.Exporter.BasicAuthUser
	exp.Password = cfg.Exporter.BasicAuthPassword
	for _, name := range cfg.Exporter.DisableCollectors {
		if err := exp.SetEnabled(name, false); err != nil {
			log.Fatalf("disable %s: %v", name, err)
		}
	}
	log.Printf("ceems_exporter: %s node %q with %d workloads (collectors: %v)",
		*class, *nodeName, *workloads, exp.CollectorNames())
	srv.Handler = exp
	// The node's counters move in real time.
	advance := serve.Every(time.Second, func(context.Context, time.Time) { node.Advance(time.Second) })
	if err := serve.Run(context.Background(), serve.Process{Servers: []*serve.Server{srv}, Loops: []serve.Loop{advance}}); err != nil {
		log.Fatal(err)
	}
}
