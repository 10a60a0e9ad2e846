// Command prometheus_sim plays the Prometheus role of the stack: it
// scrapes CEEMS exporters over HTTP, evaluates the CEEMS energy-estimation
// recording rules, and serves the Prometheus query API, whose instant
// queries the standalone CEEMS API server asks.
//
// Usage:
//
//	prometheus_sim -listen :9090 -targets node1:9100,node2:9100 -class intel
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/scrape"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	class := flag.String("class", "intel", "nodeclass label for the scrape group")
	cfg, err := config.ForCommand("prometheus_sim", flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	if len(cfg.TSDB.Targets) == 0 {
		log.Fatal("at least one -targets entry required")
	}
	cfg.Ring = config.RingConfig{} // one head: the ring is cluster_sim's
	query := &serve.Server{Name: "prometheus API", Addr: cfg.TSDB.Listen}
	servers := append(serve.Profiles(cfg.TSDB.PprofAddr), query)
	if err := serve.Bind(servers...); err != nil {
		log.Fatal(err)
	}

	// One registry for the whole process: tsdb, scrape, engine, caches and
	// ingest all register here, and /metrics serves it — the self-telemetry
	// loop our own scrape path can ingest.
	reg := telemetry.NewRegistry()
	telemetry.RegisterProcess(reg)

	// The role: head, block store when thanos.dir is set, rules, and the
	// query API with its cache and push ingest.
	prom, err := cluster.NewPrometheus(cfg, reg)
	if err != nil {
		log.Fatal(err)
	}
	sm := &scrape.Manager{
		Dest:     prom.DB,
		Fetcher:  &scrape.HTTPFetcher{Username: cfg.Exporter.BasicAuthUser, Password: cfg.Exporter.BasicAuthPassword},
		NewBatch: prom.NewBatch,
		Groups: []*scrape.TargetGroup{{
			JobName:  "ceems",
			Targets:  cfg.TSDB.Targets,
			Labels:   map[string]string{"nodeclass": *class, "cluster": cfg.Cluster.Name},
			Interval: cfg.TSDB.ScrapeInterval,
		}},
	}
	sm.InstrumentTelemetry(reg)
	prom.Rules.OnError = func(err error) { log.Printf("rules: %v", err) }
	query.Handler = prom.Handler.Mux()
	maintain := serve.Every(cfg.Thanos.ShipInterval, func(_ context.Context, now time.Time) {
		if err := prom.Maintain(now); err != nil {
			log.Printf("maintenance: %v", err)
		}
	})
	log.Printf("prometheus_sim: scraping %s (class %s) every %v (query cache %d bytes)",
		cfg.TSDB.Targets, *class, cfg.TSDB.ScrapeInterval, cfg.TSDB.QueryCacheBytes)
	if err := serve.Run(context.Background(), serve.Process{
		Servers: servers,
		Loops:   []serve.Loop{sm.Run, prom.Rules.Run, maintain},
		Closers: []func() error{prom.Close},
	}); err != nil {
		log.Fatal(err)
	}
}
