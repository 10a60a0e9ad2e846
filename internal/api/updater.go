package api

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/emissions"
	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/relstore"
	"repro/internal/resourcemanager"
)

// SeriesDeleter deletes matching series from a metrics store; it is the
// "Clean TSDB" edge of Fig. 1 (tsdb.DB implements it).
type SeriesDeleter interface {
	DeleteSeries(ms ...*labels.Matcher) int
}

// Querier evaluates one instant PromQL query: the one seam the updater asks
// its metrics through. InProcess binds an engine to a store in the same
// process; promapi.Client asks a Prometheus query API over HTTP.
type Querier interface {
	InstantCtx(ctx context.Context, query string, ts time.Time) (promql.Value, error)
}

// InProcess binds a default engine to the store q: the hot TSDB or the
// Thanos fan-in.
func InProcess(q promql.Queryable) Querier { return inProcess{promql.NewEngine(), q} }

type inProcess struct {
	engine *promql.Engine
	store  promql.Queryable
}

func (p inProcess) InstantCtx(ctx context.Context, query string, ts time.Time) (promql.Value, error) {
	return p.engine.InstantCtx(ctx, p.store, query, ts)
}

// Updater implements the API server's periodic aggregation pass: fetch the
// unit list from every resource manager, estimate each unit's aggregate
// metrics from TSDB queries over the window since the previous pass, merge
// them into the DB, roll up users and projects, and optionally clean the
// TSDB of short-lived units (the "Clean TSDB" arrow in Fig. 1).
type Updater struct {
	Store    *relstore.DB
	Fetchers []resourcemanager.Fetcher
	// Querier is the metrics source every query of a pass is asked of.
	Querier Querier
	// Query is the store a pass asks through InProcess when Querier is nil.
	//
	// Deprecated: kept for bench/ until T2 (ROADMAP U).
	Query promql.Queryable
	// Factor converts energy to emissions; nil skips emissions.
	Factor emissions.Provider
	// Zone is the grid zone for emission factors (e.g. "FR").
	Zone string
	// ShortUnitCutoff: terminated units with less runtime than this get
	// their TSDB series deleted to reduce cardinality; 0 disables.
	ShortUnitCutoff time.Duration
	// Cleaner is the TSDB to clean; nil disables cleanup. *tsdb.DB
	// satisfies it with a tombstone through its newest sample, which its
	// head and blocks obey (docs/ARCHITECTURE.md, "One delete").
	Cleaner SeriesDeleter

	// Stats, moved with sync/atomic: the health handler loads them while a
	// pass runs.
	UnitsSeen      int64
	SeriesDeleted  int64
	UpdatesApplied int64
}

// Update runs one aggregation pass at the given (simulated or wall) time.
// The pass keeps no clock of its own: each unit's window starts at its
// row's accounted_until, and the fetch starts at the stored fetch_from, so
// a restart resumes where the store left off. A unit or fetcher that fails
// holds fetch_from back, and the next pass covers its window again; so does
// every unit left when ctx is done, whose error is the context's.
func (u *Updater) Update(ctx context.Context, now time.Time) error {
	q := u.Querier
	if q == nil {
		q = InProcess(u.Query)
	}
	now = now.Truncate(time.Millisecond) // the watermarks are in ms
	from := now.Add(-time.Hour)
	if meta, found, err := u.Store.Get(tableMeta, "fetch_from"); err != nil {
		return err
	} else if found {
		from = time.UnixMilli(i64(meta, "value"))
	}
	next := now.UnixMilli()
	var firstErr error
	fail := func(err error, start time.Time) {
		next = min(next, start.UnixMilli())
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, f := range u.Fetchers {
		units, err := f.FetchUnits(ctx, from.Add(-time.Minute))
		if err != nil {
			fail(fmt.Errorf("api: fetch %s: %w", f.ClusterID(), err), from)
			continue
		}
		for _, unit := range units {
			atomic.AddInt64(&u.UnitsSeen, 1)
			if start, err := u.updateUnit(ctx, q, unit, from, now); err != nil {
				fail(err, start)
			}
		}
	}
	if err := u.Store.Upsert(tableMeta, relstore.Row{"key": "fetch_from", "value": next}); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := u.rollup(); err != nil && firstErr == nil {
		firstErr = err
	}
	atomic.AddInt64(&u.UpdatesApplied, 1)
	return firstErr
}

// updateUnit accounts the unit over [max(start, started_at), min(ended_at,
// now)] and writes the aggregate and the window's end (accounted_until) in
// one Upsert. start is the row's accounted_until, from without a row, and
// now for a row written before the column existed. It returns start; on
// error, a done ctx's included, the row is left as it was.
func (u *Updater) updateUnit(ctx context.Context, q Querier, unit model.Unit, from, now time.Time) (time.Time, error) {
	if err := ctx.Err(); err != nil {
		return from, err
	}
	prev, found, err := u.Store.Get(TableUnits, unit.UUID)
	if err != nil {
		return from, err
	}
	start := from
	var agg model.UsageAggregate
	if found {
		old := rowToUnit(prev)
		agg = old.Aggregate
		start = now
		if ms, ok := prev["accounted_until"].(int64); ok {
			start = time.UnixMilli(ms)
		}
		if old.State.Terminated() && start.UnixMilli() >= old.EndedAt {
			return start, nil // accounted to its end, and the row says so
		}
	}

	// Clamp the query window to the unit's lifetime.
	qStart := start
	if s := time.UnixMilli(unit.StartedAt); unit.StartedAt > 0 && s.After(qStart) {
		qStart = s
	}
	qEnd := now
	if e := time.UnixMilli(unit.EndedAt); unit.EndedAt > 0 && e.Before(qEnd) {
		qEnd = e
	}
	if unit.StartedAt > 0 && qEnd.After(qStart) {
		inc, err := u.queryIncrement(ctx, q, unit, qStart, qEnd)
		if err != nil {
			return start, err
		}
		agg.Merge(inc)
	}
	unit.Aggregate = agg
	row := unitToRow(unit)
	row["accounted_until"] = max(qStart.UnixMilli(), qEnd.UnixMilli())
	if err := u.Store.Upsert(TableUnits, row); err != nil {
		return start, err
	}

	// Cardinality cleanup: short-lived terminated units lose their TSDB
	// series once their aggregates are safely in the DB.
	if u.Cleaner != nil && u.ShortUnitCutoff > 0 && unit.State.Terminated() &&
		unit.ElapsedSec < int64(u.ShortUnitCutoff.Seconds()) {
		n := u.Cleaner.DeleteSeries(
			labels.MustMatcher(labels.MatchEqual, "uuid", unit.ID),
			labels.MustMatcher(labels.MatchEqual, "cluster", unit.Cluster),
		)
		atomic.AddInt64(&u.SeriesDeleted, int64(n))
	}
	return start, nil
}

// queryIncrement estimates the unit's usage over one window from TSDB. A
// failed query or emission-factor lookup fails the whole increment: a
// partial one would be merged as if the window were accounted.
func (u *Updater) queryIncrement(ctx context.Context, q Querier, unit model.Unit, qStart, qEnd time.Time) (model.UsageAggregate, error) {
	var inc model.UsageAggregate
	win := qEnd.Sub(qStart)
	winSec := win.Seconds()
	winStr := fmt.Sprintf("%dms", win.Milliseconds())
	sel := fmt.Sprintf(`{uuid=%q,cluster=%q}`, unit.ID, unit.Cluster)

	// qErr is the first query error; once set, no further query runs.
	var qErr error
	scalarQ := func(query string) (float64, bool) {
		if qErr != nil {
			return 0, false
		}
		v, err := q.InstantCtx(ctx, query, qEnd)
		if err != nil {
			qErr = err
			return 0, false
		}
		vec, ok := v.(promql.Vector)
		if !ok || len(vec) == 0 {
			return 0, false
		}
		s := 0.0
		for _, smp := range vec {
			s += smp.V
		}
		return s, true
	}

	// Host and total power averages over the window → energy increments.
	hostW, _ := scalarQ(fmt.Sprintf(`avg_over_time({__name__=~"uuid:host_watts:.+",uuid=%q,cluster=%q}[%s])`, unit.ID, unit.Cluster, winStr))
	totalW, haveTotal := scalarQ(fmt.Sprintf(`avg_over_time({__name__=~"uuid:total_watts:.+",uuid=%q,cluster=%q}[%s])`, unit.ID, unit.Cluster, winStr))
	if !haveTotal {
		totalW = hostW
	}
	inc.HostEnergyJoules = hostW * winSec
	inc.TotalEnergyJoules = totalW * winSec
	inc.GPUEnergyJoules = (totalW - hostW) * winSec
	if inc.GPUEnergyJoules < 0 {
		inc.GPUEnergyJoules = 0
	}

	// CPU time and utilization of the allocation.
	cpuTime, _ := scalarQ(fmt.Sprintf(`increase(ceems_compute_unit_cpu_usage_seconds_total%s[%s])`, sel, winStr))
	inc.CPUTimeSec = cpuTime
	if unit.CPUs > 0 && winSec > 0 {
		inc.AvgCPUUsage = cpuTime / (winSec * float64(unit.CPUs))
	}
	// Memory utilization fraction of the limit.
	memUsed, _ := scalarQ(fmt.Sprintf(`avg_over_time(ceems_compute_unit_memory_used_bytes%s[%s])`, sel, winStr))
	if unit.MemoryBytes > 0 {
		inc.AvgCPUMemUsage = memUsed / float64(unit.MemoryBytes)
	}
	// GPU utilization via the per-unit util rule when present.
	gpuUtil, haveGPU := scalarQ(fmt.Sprintf(`avg_over_time({__name__=~"uuid:gpu_util_percent:.+",uuid=%q,cluster=%q}[%s])`, unit.ID, unit.Cluster, winStr))
	if haveGPU && unit.GPUs > 0 {
		inc.AvgGPUUsage = gpuUtil / 100 / float64(unit.GPUs)
	}
	// Sample count for weighted merging.
	nsamp, _ := scalarQ(fmt.Sprintf(`count_over_time({__name__=~"uuid:host_watts:.+",uuid=%q,cluster=%q}[%s])`, unit.ID, unit.Cluster, winStr))
	inc.NumSamples = int64(nsamp)
	if inc.NumSamples == 0 && inc.TotalEnergyJoules > 0 {
		inc.NumSamples = 1
	}
	if qErr != nil {
		return inc, fmt.Errorf("api: unit %s: %w", unit.UUID, qErr)
	}

	// Emissions for this window's energy.
	if u.Factor != nil && inc.TotalEnergyJoules > 0 {
		f, err := u.Factor.Factor(ctx, u.Zone)
		if err != nil {
			return inc, fmt.Errorf("api: unit %s: emission factor: %w", unit.UUID, err)
		}
		inc.EmissionsGrams = f.Grams(inc.TotalEnergyJoules)
	}
	return inc, nil
}

// rollup recomputes the user and project tables from the units table.
func (u *Updater) rollup() error {
	rows, err := u.Store.Select(TableUnits, relstore.Query{})
	if err != nil {
		return err
	}
	units := make([]model.Unit, len(rows))
	for i, row := range rows {
		units[i] = rowToUnit(row)
	}
	type acc struct {
		cluster, name string
		n             int64
		agg           model.UsageAggregate
	}
	for _, t := range []struct {
		table, col string
		name       func(model.Unit) string
	}{
		{TableUsers, "user", func(unit model.Unit) string { return unit.User }},
		{TableProjects, "project", func(unit model.Unit) string { return unit.Project }},
	} {
		accs := map[string]*acc{}
		for _, unit := range units {
			key := rollupKey(unit.Cluster, t.name(unit))
			a := accs[key]
			if a == nil {
				a = &acc{cluster: unit.Cluster, name: t.name(unit)}
				accs[key] = a
			}
			a.n++
			a.agg.Merge(unit.Aggregate)
		}
		for key, a := range accs {
			row := relstore.Row{
				"key": key, "cluster": a.cluster, t.col: a.name,
				"num_units": a.n, "cpu_time_sec": a.agg.CPUTimeSec,
				"total_energy_j": a.agg.TotalEnergyJoules, "emissions_g": a.agg.EmissionsGrams,
				"num_samples": a.agg.NumSamples,
			}
			if t.table == TableUsers {
				row["avg_cpu_usage"], row["avg_gpu_usage"] = a.agg.AvgCPUUsage, a.agg.AvgGPUUsage
			}
			if err := u.Store.Upsert(t.table, row); err != nil {
				return err
			}
		}
	}
	return nil
}
