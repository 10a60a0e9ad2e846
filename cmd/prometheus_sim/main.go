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
	"strings"
	"time"

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
	var (
		listen   = flag.String("listen", ":9090", "HTTP listen address")
		targets  = flag.String("targets", "", "comma-separated exporter targets (host:port)")
		class    = flag.String("class", "intel", "nodeclass label for the scrape group")
		cluster  = flag.String("cluster", "sim", "cluster label")
		interval = flag.Duration("scrape-interval", 15*time.Second, "scrape interval")
		ruleInt  = flag.Duration("rule-interval", time.Minute, "rule evaluation interval")
		user     = flag.String("scrape-auth-user", "", "basic auth user for scraping")
		pass     = flag.String("scrape-auth-pass", "", "basic auth password for scraping")
		shards   = flag.Int("tsdb-shards", 0, "TSDB head shards (power of two; 0 = GOMAXPROCS)")
		queryTmo = flag.Duration("query-timeout", 2*time.Minute, "per-query evaluation deadline (0 disables)")
		walDir   = flag.String("wal-dir", "", "per-shard TSDB write-ahead-log directory; restarts replay it (empty = memory-only head)")
		cacheSz  = flag.Int64("query-cache-bytes", 64<<20, "query-result cache byte budget; repeated dashboard range queries reuse cached steps and evaluate only the new tail (0 disables)")
		remoteWr = flag.Bool("remote-write", false, "serve POST /api/v1/write: framed expofmt push ingest with 429 backpressure (see /api/v1/status/ingest)")
		rwMaxInf = flag.Int("remote-write-max-inflight", 0, "max concurrently committing remote-write requests before 429 (0 = 2x GOMAXPROCS)")
		oooWin   = flag.Duration("ooo-window", 0, "accept samples up to this far behind the head max time (remote-write retry tolerance); 0 keeps strict ordering")
		slowThr  = flag.Duration("slow-query-threshold", 0, "queries at or above this duration land in the slow-query ring at /api/v1/status/queries (0 disables the slow log; active-query tracking always on)")
		slowCap  = flag.Int("slow-query-capacity", 0, "slow-query ring size (0 = 128)")
		pprofAdr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables); kept off the main listener so profiling is never exposed to query clients")
		blockDir = flag.String("blocks-dir", "", "persistent block store directory: the head is cut into immutable blocks every -block-range, compacted and downsampled in the background, and queries fan in over head + blocks (see docs/ARCHITECTURE.md); empty keeps the head-only lifecycle")
		blockRng = flag.Duration("block-range", 2*time.Hour, "block cut cadence; the head keeps 2x this after each cut so lookback windows never straddle a gap")
		compactN = flag.Int("compaction-factor", 0, "consecutive same-level blocks merged per compaction level (0 = 3); overlapping blocks always compact first regardless")
		downsmpl = flag.Bool("downsample", true, "maintain 5m/1h downsampled aggregates alongside raw blocks (cut after 2x/10x -block-range); hinted range queries then read sum/count/min/max points instead of raw chunks")
	)
	flag.Parse()
	if *targets == "" {
		log.Fatal("at least one -targets entry required")
	}

	// One registry for the whole process: tsdb, scrape, engine, caches and
	// ingest all register here, and /metrics serves it — the self-telemetry
	// loop our own scrape path can ingest.
	reg := telemetry.NewRegistry()
	telemetry.RegisterProcess(reg)

	opts := tsdb.DefaultOptions()
	opts.Shards = *shards
	opts.WALDir = *walDir
	opts.OutOfOrderWindow = oooWin.Milliseconds()
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
		Fetcher:  &scrape.HTTPFetcher{Username: *user, Password: *pass},
		NewBatch: func() scrape.Batch { return db.Appender() },
		Groups: []*scrape.TargetGroup{{
			JobName:  "ceems",
			Targets:  strings.Split(*targets, ","),
			Labels:   map[string]string{"nodeclass": *class, "cluster": *cluster},
			Interval: *interval,
		}},
	}
	sm.InstrumentTelemetry(reg)
	ropts := ceemsrules.DefaultOptions()
	ropts.Interval = *ruleInt
	rm := &rules.Manager{
		Engine: rules.NewEngine(nil), Query: db, Dest: db,
		Groups:  ceemsrules.AllGroups(ropts),
		OnError: func(err error) { log.Printf("rules: %v", err) },
	}
	rm.Engine.InstrumentTelemetry(reg)
	ctx := context.Background()
	go sm.Run(ctx)
	go rm.Run(ctx)

	// Block-store lifecycle: ship head cuts into the cold store on a
	// ticker, compact and downsample in the same pass, and serve queries
	// through the hot/cold fan-in querier so dashboards never notice the
	// seam. Without -blocks-dir the head (plus its WAL) is the only store.
	var queryable promql.Queryable = db
	if *blockDir != "" {
		store, err := thanos.NewStore(*blockDir)
		if err != nil {
			log.Fatalf("blocks: %v", err)
		}
		store.CompactionFactor = *compactN
		store.Instrument(reg)
		log.Printf("blocks: store %s opened with %d blocks, cutting every %v", *blockDir, store.NumBlocks(), *blockRng)
		sc := &thanos.Sidecar{DB: db, Store: store, HeadRetention: 2 * *blockRng}
		queryable = &thanos.Querier{Hot: db, Cold: store}
		go func() {
			tick := time.NewTicker(*blockRng)
			defer tick.Stop()
			for now := range tick.C {
				if err := sc.Ship(now); err != nil {
					log.Printf("blocks: ship: %v", err)
					continue
				}
				if n, err := store.Compact(db.Tombstones()); err != nil {
					log.Printf("blocks: compact: %v", err)
				} else if n > 0 {
					log.Printf("blocks: compacted %d block sets", n)
				}
				if *downsmpl {
					for _, lvl := range []struct {
						age time.Duration
						res time.Duration
					}{{2 * *blockRng, 5 * time.Minute}, {10 * *blockRng, time.Hour}} {
						n, err := store.Downsample(now.Add(-lvl.age).UnixMilli(), lvl.res)
						if err != nil {
							log.Printf("blocks: downsample %v: %v", lvl.res, err)
						} else if n > 0 {
							log.Printf("blocks: downsampled %d blocks to %v", n, lvl.res)
						}
					}
				}
			}
		}()
	}

	eng := promql.NewEngine()
	eng.InstrumentTelemetry(reg)
	h := &promapi.Handler{
		Engine:  eng,
		Query:   queryable,
		Timeout: *queryTmo,
		Metrics: reg,
		Queries: &telemetry.QueryLog{SlowThreshold: *slowThr, SlowCapacity: *slowCap},
	}
	if *remoteWr {
		h.Ingest = &remotewrite.Receiver{
			NewBatch:    func() scrape.Batch { return db.Appender() },
			MaxInflight: *rwMaxInf,
			Telemetry:   reg,
		}
	}
	if *cacheSz > 0 {
		h.Cache = querycache.New(querycache.Options{
			MaxBytes:  *cacheSz,
			Head:      db,
			Lookback:  eng.LookbackDelta,
			MaxSteps:  eng.MaxSteps,
			Telemetry: reg,
			Name:      "promapi",
		})
	}
	if *pprofAdr != "" {
		go func() {
			// net/http/pprof registered itself on DefaultServeMux; serve that
			// mux only here, never on the query listener.
			log.Printf("pprof: serving on %s", *pprofAdr)
			log.Fatal(http.ListenAndServe(*pprofAdr, nil))
		}()
	}
	log.Printf("prometheus_sim: scraping %s (class %s) every %v, serving %s (query cache %d bytes)",
		*targets, *class, *interval, *listen, *cacheSz)
	log.Fatal(http.ListenAndServe(*listen, h.Mux()))
}
