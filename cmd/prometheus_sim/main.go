// Command prometheus_sim plays the Prometheus role of the stack: it
// scrapes CEEMS exporters over HTTP, evaluates the CEEMS energy-estimation
// recording rules, and serves the Prometheus query API plus the JSON
// remote-read endpoint the standalone CEEMS API server consumes.
//
// Usage:
//
//	prometheus_sim -listen :9090 -targets node1:9100,node2:9100 -class intel
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // profiling endpoints on the -pprof-addr listener
	"os"
	"time"

	"repro/internal/config"
	"repro/internal/promapi"
	"repro/internal/promql"
	"repro/internal/querycache"
	"repro/internal/remotewrite"
	"repro/internal/rules"
	"repro/internal/rules/ceemsrules"
	"repro/internal/scrape"
	"repro/internal/telemetry"
	"repro/internal/thanos"
	"repro/internal/tsdb"
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
	blockRng := cfg.Thanos.ShipInterval

	// One registry for the whole process: tsdb, scrape, engine, caches and
	// ingest all register here, and /metrics serves it — the self-telemetry
	// loop our own scrape path can ingest.
	reg := telemetry.NewRegistry()
	telemetry.RegisterProcess(reg)

	opts := tsdb.DefaultOptions()
	opts.WALDir = cfg.TSDB.WALDir
	opts.OutOfOrderWindow = cfg.TSDB.OOOWindow.Milliseconds()
	opts.Telemetry = reg
	db, err := tsdb.Open(opts)
	if err != nil {
		log.Fatalf("tsdb: %v", err)
	}
	if ws, ok := db.WALStats(); ok {
		r := ws.Replay
		log.Printf("tsdb: wal replay: %d shards, %d segments, %d records, %d samples (%d series) recovered, %d torn-tail repairs, in %v",
			r.Shards, r.Segments, r.Records, r.Samples, r.Series, r.TornRepairs, r.Duration)
	}
	sm := &scrape.Manager{
		Dest:     db,
		Fetcher:  &scrape.HTTPFetcher{Username: cfg.Exporter.BasicAuthUser, Password: cfg.Exporter.BasicAuthPassword},
		NewBatch: func() scrape.Batch { return db.Appender() },
		Groups: []*scrape.TargetGroup{{
			JobName:  "ceems",
			Targets:  cfg.TSDB.Targets,
			Labels:   map[string]string{"nodeclass": *class, "cluster": cfg.Cluster.Name},
			Interval: cfg.TSDB.ScrapeInterval,
		}},
	}
	sm.InstrumentTelemetry(reg)
	ropts := ceemsrules.DefaultOptions()
	ropts.Interval = cfg.TSDB.RuleInterval
	ropts.RateWindow = cfg.TSDB.RateWindow
	rm := &rules.Manager{
		Engine: rules.NewEngine(nil), Query: db, Dest: db,
		Groups:  ceemsrules.AllGroups(ropts),
		OnError: func(err error) { log.Printf("rules: %v", err) },
	}
	rm.Engine.InstrumentTelemetry(reg)
	ctx := context.Background()
	go sm.Run(ctx)
	go rm.Run(ctx)

	// Head and block-store lifecycle, one pass per -block-range. Without
	// -blocks-dir the head (plus its WAL) is the only store and the pass
	// prunes it to the retention window. With it the pass ships the head
	// cut into the cold store, compacts and downsamples, and queries go
	// through the hot/cold fan-in querier so dashboards never notice the
	// seam.
	var queryable promql.Queryable = db
	maintain := func(now time.Time) {
		if _, err := db.Truncate(now.Add(-cfg.TSDB.RetentionPeriod).UnixMilli()); err != nil {
			log.Printf("tsdb: retention: %v", err)
		}
	}
	if cfg.Thanos.Dir != "" {
		store, err := thanos.NewStore(cfg.Thanos.Dir)
		if err != nil {
			log.Fatalf("blocks: %v", err)
		}
		store.Instrument(reg)
		log.Printf("blocks: store %s opened with %d blocks, cutting every %v", cfg.Thanos.Dir, store.NumBlocks(), blockRng)
		sc := &thanos.Sidecar{DB: db, Store: store, HeadRetention: 2 * blockRng}
		queryable = &thanos.Querier{Hot: db, Cold: store}
		maintain = func(now time.Time) {
			if err := sc.Ship(now); err != nil {
				log.Printf("blocks: ship: %v", err)
				return
			}
			if n, err := store.Compact(db.Tombstones()); err != nil {
				log.Printf("blocks: compact: %v", err)
			} else if n > 0 {
				log.Printf("blocks: compacted %d block sets", n)
			}
			for _, lvl := range []struct {
				age time.Duration
				res time.Duration
			}{{2 * blockRng, 5 * time.Minute}, {10 * blockRng, time.Hour}} {
				n, err := store.Downsample(now.Add(-lvl.age).UnixMilli(), lvl.res)
				if err != nil {
					log.Printf("blocks: downsample %v: %v", lvl.res, err)
				} else if n > 0 {
					log.Printf("blocks: downsampled %d blocks to %v", n, lvl.res)
				}
			}
		}
	}
	go func() {
		tick := time.NewTicker(blockRng)
		defer tick.Stop()
		for now := range tick.C {
			maintain(now)
		}
	}()

	eng := promql.NewEngine()
	eng.InstrumentTelemetry(reg)
	h := &promapi.Handler{
		Engine:  eng,
		Query:   queryable,
		Timeout: cfg.TSDB.QueryTimeout,
		Metrics: reg,
		Queries: &telemetry.QueryLog{SlowThreshold: cfg.TSDB.SlowQueryThreshold},
	}
	if cfg.TSDB.RemoteWrite {
		h.Ingest = &remotewrite.Receiver{
			NewBatch:  func() scrape.Batch { return db.Appender() },
			Telemetry: reg,
		}
	}
	if cfg.TSDB.QueryCacheBytes > 0 {
		h.Cache = querycache.New(querycache.Options{
			MaxBytes:  cfg.TSDB.QueryCacheBytes,
			Head:      db,
			Lookback:  eng.LookbackDelta,
			MaxSteps:  eng.MaxSteps,
			Telemetry: reg,
			Name:      "promapi",
		})
	}
	if cfg.TSDB.PprofAddr != "" {
		go func() {
			// net/http/pprof registered itself on DefaultServeMux; serve that
			// mux only here, never on the query listener.
			log.Printf("pprof: serving on %s", cfg.TSDB.PprofAddr)
			log.Fatal(http.ListenAndServe(cfg.TSDB.PprofAddr, nil))
		}()
	}
	log.Printf("prometheus_sim: scraping %s (class %s) every %v, serving %s (query cache %d bytes)",
		cfg.TSDB.Targets, *class, cfg.TSDB.ScrapeInterval, cfg.TSDB.Listen, cfg.TSDB.QueryCacheBytes)
	log.Fatal(http.ListenAndServe(cfg.TSDB.Listen, h.Mux()))
}
