package cluster

import (
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"time"

	"repro/internal/api"
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

// Prometheus is the stack's Prometheus role (paper Fig. 1), assembled once
// from the tsdb, thanos and ring sections: the head or the ring, the
// recording rules, the block lifecycle, and the query API handler with its
// result cache and push ingest. Its owner brings the scrape manager and the
// clock: prometheus_sim scrapes exporters over HTTP on the wall clock, Sim
// scrapes in-process exporters on simulated time.
//
// thanos.dir means the same in every process. Empty, the role is head-only
// and Maintain prunes the head to tsdb.retention. Set, Maintain runs the
// block store's maintenance pass into that directory, and Query fans in over
// head and blocks. A ring keeps no block store: Maintain prunes every live
// member to tsdb.retention.
type Prometheus struct {
	// DB is the head; nil on a ring.
	DB *tsdb.DB
	// Ring is the replicated head when ring.nodes > 1; nil otherwise.
	Ring *RingDB
	// Cold is the block store when thanos.dir is set; nil otherwise.
	Cold *thanos.Store
	// Query is the one source the query API and the API server's updater
	// read: the hot/cold fan-in, the ring's quorum read, or the head.
	Query promql.Queryable
	// Rules evaluates the CEEMS recording rules over the head or the ring.
	Rules *rules.Manager
	// Handler serves the Prometheus query API over Query.
	Handler *promapi.Handler

	cfg     config.Config
	head    head
	sidecar *thanos.Sidecar
}

// head is what the role reads and writes, on one TSDB or across the ring.
type head interface {
	promql.Queryable
	querycache.Head
	rules.Appender
	api.SeriesDeleter
}

// NewPrometheus opens the role's storage and assembles the rest around it.
// reg, when not nil, receives the head's, the block store's and the query
// path's instruments; ring members are not instrumented one by one (their
// series would collide on one registry), the ring's own metrics cover them.
func NewPrometheus(cfg config.Config, reg *telemetry.Registry) (*Prometheus, error) {
	p := &Prometheus{cfg: cfg}
	// One head (node ""), or ring members journaling under <wal_dir>/<node>.
	openDB := func(node string) (*tsdb.DB, error) {
		o := tsdb.DefaultOptions()
		o.OutOfOrderWindow = cfg.TSDB.OOOWindow.Milliseconds()
		if node == "" {
			o.Telemetry = reg
		}
		if cfg.TSDB.WALDir != "" {
			o.WALDir = filepath.Join(cfg.TSDB.WALDir, node)
		}
		return tsdb.Open(o)
	}
	if cfg.Ring.Nodes > 1 {
		rf := cfg.Ring.ReplicationFactor
		if rf <= 0 {
			rf = min(3, cfg.Ring.Nodes)
		}
		w := cfg.Ring.WriteQuorum
		if w <= 0 {
			w = rf/2 + 1
		}
		names := make([]string, cfg.Ring.Nodes)
		for i := range names {
			names[i] = fmt.Sprintf("tsdb-%d", i)
		}
		ring, err := NewRingDB(rf, w, 0, openDB, names...)
		if err != nil {
			return nil, fmt.Errorf("cluster: open ring: %w", err)
		}
		if reg != nil {
			ring.InstrumentTelemetry(reg)
		}
		log.Printf("ring: %d nodes, R=%d W=%d (reads need %d live replicas per owner group)", len(names), rf, w, rf-w+1)
		for _, n := range names {
			logReplay(n, ring.Member(n).DB())
		}
		if cfg.Thanos.Dir != "" {
			log.Printf("ring: thanos.dir %s is not used: a ring keeps no block store, and each member prunes to tsdb.retention (%v)", cfg.Thanos.Dir, cfg.TSDB.RetentionPeriod)
		}
		p.Ring, p.head, p.Query = ring, ring, ring
	} else {
		db, err := openDB("")
		if err != nil {
			return nil, fmt.Errorf("cluster: open tsdb: %w", err)
		}
		logReplay("tsdb", db)
		p.DB, p.head, p.Query = db, db, db
		if cfg.Thanos.Dir != "" {
			if p.Cold, err = thanos.NewStore(cfg.Thanos.Dir); err != nil {
				db.Close()
				return nil, fmt.Errorf("cluster: open block store: %w", err)
			}
			if reg != nil {
				p.Cold.Instrument(reg)
			}
			log.Printf("blocks: store %s opened with %d blocks, cutting every %v", cfg.Thanos.Dir, p.Cold.NumBlocks(), cfg.Thanos.ShipInterval)
			p.sidecar = &thanos.Sidecar{DB: db, Store: p.Cold, HeadRetention: 2 * cfg.Thanos.ShipInterval}
			p.Query = &thanos.Querier{Hot: db, Cold: p.Cold}
		}
	}

	ropts := ceemsrules.DefaultOptions()
	ropts.Interval = cfg.TSDB.RuleInterval
	ropts.RateWindow = cfg.TSDB.RateWindow
	p.Rules = &rules.Manager{
		Engine: rules.NewEngine(nil), Query: p.head, Dest: p.head,
		Groups: ceemsrules.AllGroups(ropts),
	}

	eng := promql.NewEngine()
	if reg != nil {
		p.Rules.Engine.InstrumentTelemetry(reg)
		eng.InstrumentTelemetry(reg)
	}
	p.Handler = &promapi.Handler{
		Engine:  eng,
		Query:   p.Query,
		Timeout: cfg.TSDB.QueryTimeout,
		Metrics: reg,
		Queries: &telemetry.QueryLog{SlowThreshold: cfg.TSDB.SlowQueryThreshold},
	}
	if cfg.TSDB.QueryCacheBytes > 0 {
		// Range answers, exact, invalidated by the head's append progress.
		p.Handler.Cache = querycache.New(querycache.Options{
			MaxBytes:  cfg.TSDB.QueryCacheBytes,
			Head:      p.head,
			Lookback:  eng.LookbackDelta,
			MaxSteps:  eng.MaxSteps,
			Telemetry: reg,
			Name:      "promapi",
		})
	}
	if cfg.TSDB.RemoteWrite {
		// On a ring, pushed batches take the scrapes' W-quorum commit.
		p.Handler.Ingest = &remotewrite.Receiver{NewBatch: p.NewBatch, Telemetry: reg}
	}
	return p, nil
}

// logReplay reports what a WAL-backed TSDB recovered at open.
func logReplay(name string, db *tsdb.DB) {
	if ws, ok := db.WALStats(); ok {
		r := ws.Replay
		log.Printf("%s: wal replay: %d shards, %d segments, %d records, %d samples (%d series) recovered, %d torn-tail repairs, in %v",
			name, r.Shards, r.Segments, r.Records, r.Samples, r.Series, r.TornRepairs, r.Duration)
	}
}

// NewBatch starts a bulk append: the head's appender, or a ring batch that
// commits through the write quorum.
func (p *Prometheus) NewBatch() scrape.Batch {
	if p.Ring != nil {
		return p.Ring.NewBatch()
	}
	return p.DB.Appender()
}

// Maintain runs the block lifecycle once at now; its owner calls it every
// thanos.ship_interval. With a block store it is the store's maintenance
// pass (ship, compact, downsample). Without one the head, or every live
// ring member, is pruned to tsdb.retention; a down member is skipped, a
// failed checkpoint is an error.
func (p *Prometheus) Maintain(now time.Time) error {
	cutoff := now.Add(-p.cfg.TSDB.RetentionPeriod).UnixMilli()
	switch {
	case p.sidecar != nil:
		compacted, downsampled, err := p.sidecar.Maintain(now, p.cfg.Thanos.ShipInterval)
		if compacted > 0 || downsampled > 0 {
			log.Printf("blocks: compacted %d block sets, downsampled %d blocks", compacted, downsampled)
		}
		return err
	case p.cfg.TSDB.RetentionPeriod <= 0:
		return nil
	case p.Ring != nil:
		_, outs := p.Ring.Truncate(cutoff)
		var errs []error
		for _, mo := range outs {
			if mo.Err != nil && !errors.Is(mo.Err, ErrNodeDown) {
				errs = append(errs, fmt.Errorf("truncate %s: %w", mo.Member, mo.Err))
			}
		}
		return errors.Join(errs...)
	default:
		_, err := p.DB.Truncate(cutoff)
		return err
	}
}

// Close closes the role's storage: the head's WAL, or every live ring
// member's, is flushed and fsynced, then the block store is closed. The
// role must not be used after.
func (p *Prometheus) Close() error {
	var err error
	if p.Ring != nil {
		err = p.Ring.Close()
	} else {
		err = p.DB.Close()
	}
	if p.Cold != nil {
		err = errors.Join(err, p.Cold.Close())
	}
	return err
}
