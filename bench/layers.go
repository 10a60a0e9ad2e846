package main

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/expofmt"
	"repro/internal/lb"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/querycache"
	"repro/internal/remotewrite"
	"repro/internal/tsdb/chunkenc"
)

// layerInputs is what the measured phase hands to the per-layer report.
type layerInputs struct {
	fams, base []*expofmt.Family
	ql         queryLog
	lat        [numClasses]timings
	allRange   timings
	census     censusResult
	restart    restartResult
	promCache  querycache.Stats
	lbCache    querycache.Stats
	mergeNS    float64 // probe taken while the head was still open
	appended   float64
	allocBytes uint64
	gcFraction float64
	phaseCPU   float64 // CPU seconds the measured phase took
	requests   []*request
}

// layerMetrics fills the report with the per-layer metrics: spans of the
// recorded operations, counter deltas from the one registry, and probes —
// direct calls on inputs captured during the measured phase.
func (s *stack) layerMetrics(rep *report, in layerInputs) {
	rec, l := s.rec, &s.log
	delta := func(name string, labelPairs ...string) float64 {
		return counter(in.fams, name, labelPairs...) - counter(in.base, name, labelPairs...)
	}
	ms := func(t timings) float64 { return 1e3 * median(t) }
	mean := func(t timings) float64 { return ratio(t.sum(), float64(len(t))) }
	self := rec.selfTimes()
	countOf := func(layer, name string) (count, series float64, n int) {
		for i := range rec.spans {
			if sp := &rec.spans[i]; sp.Layer == layer && sp.Name == name {
				count += float64(sp.Count)
				series += float64(sp.Series)
				n++
			}
		}
		return
	}

	// exporter, expofmt
	renders := append(rec.durations(layerExporter, "render", nil), rec.durations(layerExporter, "gather", nil)...)
	rep.put("exporter.render_us_per_node", 1e6*mean(renders), "us")
	payloadBytes, payloadSamples, parseS := 0, 0, 0.0
	for _, p := range s.scrapePayloads {
		payloadBytes += len(p)
		w := startWatch()
		fams, err := expofmt.Parse(strings.NewReader(p))
		parseS += w.seconds()
		if err == nil {
			for _, f := range fams {
				payloadSamples += len(f.Metrics)
			}
		}
	}
	rep.put("exporter.bytes_per_node", ratio(float64(payloadBytes), float64(len(s.scrapePayloads))), "B")
	rep.put("exporter.samples_per_node", ratio(float64(payloadSamples), float64(len(s.scrapePayloads))), "count")
	rep.put("expofmt.parse_ns_per_sample", 1e9*ratio(parseS, float64(payloadSamples)), "ns")

	// scrape
	passSelf := 0.0
	for i := range rec.spans {
		if sp := &rec.spans[i]; sp.Layer == layerScrape {
			passSelf += self[sp.ID]
		}
	}
	rep.put("scrape.pass_p50_ms", ms(l.scrape.dur), "ms")
	rep.put("scrape.self_share", ratio(passSelf, rec.durations(layerScrape, "pass", nil).sum()), "ratio")
	rep.put("scrape.nodes_at_15s", ratio(scrapeInterval.Seconds()*float64(s.cpuNodes), mean(l.scrape.dur)), "count")
	rep.put("scrape.failed_ratio", ratio(delta("telemetry_scrape_failures_total"), delta("telemetry_scrape_passes_total")), "ratio")

	// remotewrite
	encNS, decNS := probeRemoteWrite(s.pushBody)
	rep.put("remotewrite.encode_ns_per_sample", encNS, "ns")
	rep.put("remotewrite.decode_ns_per_sample", decNS, "ns")
	rep.put("remotewrite.wire_bytes_per_sample", ratio(float64(l.pushBytes), float64(l.push.total())), "B")
	rep.put("remotewrite.request_p50_ms", ms(rec.durations(layerPromAPI, "/api/v1/write", nil)), "ms")
	rep.put("remotewrite.rejected_ratio", ratio(delta("telemetry_remotewrite_rejected_total"), delta("telemetry_remotewrite_requests_total")), "ratio")

	// tsdb head
	appendS := rec.durations(layerTSDB, "append", nil).sum()
	appendN, _, _ := countOf(layerTSDB, "append")
	rep.put("tsdb.append_ns_per_sample", 1e9*ratio(appendS, appendN), "ns")
	rep.put("tsdb.head_series", float64(in.census.headSeries), "count")
	rep.put("tsdb.dropped_samples", delta("telemetry_tsdb_duplicates_total")+delta("telemetry_tsdb_too_old_total"), "count")
	selects := rec.durations(layerTSDB, "select", nil)
	selSamples, selSeries, selCalls := countOf(layerTSDB, "select")
	rep.put("tsdb.select_p50_ms", ms(selects), "ms")
	rep.put("tsdb.select_ns_per_sample", 1e9*ratio(selects.sum(), selSamples), "ns")
	rep.put("tsdb.select_series_per_call", ratio(selSeries, float64(selCalls)), "count")
	rep.put("tsdb.select_samples_per_call", ratio(selSamples, float64(selCalls)), "count")
	rep.put("tsdb.label_values_p50_ms", ms(rec.durations(layerTSDB, "label_values", nil)), "ms")

	// tsdb.wal
	rep.put("tsdb.wal.flush_bytes", delta("telemetry_tsdb_wal_flush_bytes_total"), "B")
	rep.put("tsdb.wal.fsyncs", delta("telemetry_tsdb_wal_fsync_seconds_count"), "count")
	rep.put("tsdb.wal.fsync_s", delta("telemetry_tsdb_wal_fsync_seconds_sum"), "s")
	rep.put("tsdb.wal.records", delta("telemetry_tsdb_wal_records_total"), "count")
	rep.put("tsdb.wal.checkpoints", delta("telemetry_tsdb_wal_checkpoints_total"), "count")
	rep.put("tsdb.wal.replay_samples_per_s", ratio(float64(in.restart.samples*len(in.restart.reopen)), in.restart.replayS), "1/s")
	rep.put("tsdb.wal.replay_segments", float64(in.restart.segs), "count")
	rep.put("tsdb.wal.replay_p50_ms", ms(in.restart.reopen), "ms")

	// tsdb.chunkenc
	encode, decode, bytesPer := probeChunkenc(s.sc.seed)
	rep.put("chunkenc.encode_ns_per_sample", encode, "ns")
	rep.put("chunkenc.decode_ns_per_sample", decode, "ns")
	rep.put("chunkenc.bytes_per_sample", bytesPer, "B")

	// rules, api
	ingestWall := l.scrape.dur.sum() + l.push.dur.sum() + l.rules.dur.sum() + l.update.dur.sum()
	rep.put("rules.eval_p50_ms", ms(l.rules.dur), "ms")
	rep.put("rules.samples_written_per_eval", ratio(float64(l.samplesWritten), float64(len(l.rules.dur))), "count")
	rep.put("rules.share_of_ingest_wall", ratio(l.rules.dur.sum(), ingestWall), "ratio")
	rep.put("api.update_p50_ms", ms(l.update.dur), "ms")
	rep.put("api.owns_us", s.probeOwns(), "us")
	rep.put("api.series_cleaned", float64(s.updater.SeriesDeleted-s.cleanedBase), "count")

	// thanos
	rep.put("thanos.maint_s", l.ship.sum()+l.compact.sum()+l.downsample.sum(), "s")
	rep.put("thanos.ship_p50_ms", ms(l.ship), "ms")
	rep.put("thanos.compact_s", l.compact.sum(), "s")
	rep.put("thanos.downsample_s", l.downsample.sum(), "s")
	rep.put("thanos.blocks", float64(in.census.blocks), "count")
	aggr := rec.durations(layerThanos, "select", func(sp *span) bool { return sp.Note == "aggr" })
	eligibleRaw := rec.durations(layerThanos, "select", func(sp *span) bool { return sp.Note == "eligible-raw" })
	raw := rec.durations(layerThanos, "select", func(sp *span) bool { return sp.Note != "aggr" })
	coldSamples, _, coldCalls := countOf(layerThanos, "select")
	rep.put("thanos.select_raw_p50_ms", ms(raw), "ms")
	rep.put("thanos.select_aggr_p50_ms", ms(aggr), "ms")
	rep.put("thanos.aggr_served_ratio", ratio(float64(len(aggr)), float64(len(aggr)+len(eligibleRaw))), "ratio")
	rep.put("thanos.select_samples_per_call", ratio(coldSamples, float64(coldCalls)), "count")

	// promql
	queries := distinctQueries(in.requests)
	rep.put("promql.parse_us", probeEach(queries, func(q string) { _, _ = promql.ParseExpr(q) }), "us")
	byStage := map[string]timings{}
	for _, st := range rec.stages {
		byStage[st.name] = append(byStage[st.name], st.seconds)
	}
	rep.put("promql.prefetch_p50_ms", ms(byStage["prefetch"]), "ms")
	rep.put("promql.eval_p50_ms", ms(byStage["eval"]), "ms")
	rep.put("promql.merge_p50_ms", ms(byStage["merge"]), "ms")
	steps, ranges := 0.0, 0
	for _, r := range in.requests {
		if r.step > 0 {
			steps += float64(r.end.Sub(r.start)/r.step) + 1
			ranges++
		}
	}
	rep.put("promql.steps_per_query", ratio(steps, float64(ranges)), "count")

	// querycache (the query API's result cache)
	pc := in.promCache
	lookups := float64(pc.Hits + pc.Misses + pc.Splices)
	rep.put("querycache.hit_ratio", ratio(float64(pc.Hits), lookups), "ratio")
	rep.put("querycache.splice_ratio", ratio(float64(pc.Splices), lookups), "ratio")
	rep.put("querycache.miss_ratio", ratio(float64(pc.Misses), lookups), "ratio")
	rep.put("querycache.invalidations", float64(pc.Invalidations), "count")
	rep.put("querycache.evictions", float64(pc.Evictions), "count")
	rep.put("querycache.bytes", float64(pc.Bytes), "B")
	isQuery := func(sp *span) bool { return sp.Name != "/api/v1/write" }
	byVerdict := func(v string) timings {
		var out timings
		for i := range rec.spans {
			if sp := &rec.spans[i]; sp.Layer == layerPromAPI && isQuery(sp) && sp.Note == v {
				out = append(out, sp.seconds())
			}
		}
		return out
	}
	rep.put("querycache.splice_p50_ms", ms(byVerdict("splice")), "ms")
	rep.put("querycache.hit_p50_ms", ms(byVerdict("hit")), "ms")

	// promapi, lb, client: handler spans of the recorded dashboard requests
	var handler, handlerSelf, lbSelf, clientSelf, respBytes timings
	for i := range rec.spans {
		sp := &rec.spans[i]
		switch {
		case sp.Layer == layerPromAPI && isQuery(sp):
			handler = append(handler, sp.seconds())
			handlerSelf = append(handlerSelf, self[sp.ID])
			respBytes = append(respBytes, float64(sp.Count))
		case sp.Layer == layerLB:
			lbSelf = append(lbSelf, self[sp.ID])
		case sp.Layer == layerClient && sp.Name != "push":
			clientSelf = append(clientSelf, self[sp.ID])
		}
	}
	rep.put("promapi.handler_p50_ms", ms(handler), "ms")
	rep.put("promapi.self_p50_ms", ms(handlerSelf), "ms")
	rep.put("promapi.response_bytes_p50", median(respBytes), "B")
	rep.put("lb.self_p50_ms", ms(lbSelf), "ms")
	rep.put("lb.extract_uuids_us", probeEach(queries, func(q string) { _, _ = lb.ExtractUUIDs(q) }), "us")
	lc := in.lbCache
	rep.put("lb.blob_hit_ratio", ratio(float64(lc.Hits), float64(lc.Hits+lc.Misses)), "ratio")
	rep.put("lb.denied", float64(s.lb.Denied()), "count")
	rep.put("lb.merge_replicas_ns_per_sample", in.mergeNS, "ns")
	rep.put("client.http_overhead_p50_ms", ms(clientSelf), "ms")
	rep.put("client.range_p99_ms", 1e3*quantile(in.allRange, 0.99), "ms")
	rep.put("client.instant_p99_ms", 1e3*quantile(in.lat[classInstant], 0.99), "ms")

	// process
	rep.put("process.peak_rss_mb", peakRSSMB(), "MB")
	rep.put("process.alloc_bytes_per_query", ratio(float64(in.ql.allocBytes), float64(len(in.ql.answers))), "B")
	rep.put("process.alloc_bytes_per_sample", ratio(float64(in.allocBytes-in.ql.allocBytes), in.appended), "B")
	rep.put("process.gc_cpu_fraction", in.gcFraction, "ratio")
	rep.put("process.gen_share", ratio(l.gen.Seconds(), in.phaseCPU), "ratio")
	rep.put("process.machine_slowdown", median(cal.factors), "ratio")

	// trace: what the spans do not explain, and what recording them cost
	layers := rec.attribute(self)
	recordedWall, selfSum := l.ship.sum()+l.compact.sum()+l.downsample.sum(), 0.0
	for _, lt := range layers {
		selfSum += lt.self
	}
	var onS, offS float64 // Σ over kinds of n·mean(recorded), n·mean(unrecorded)
	pair := func(dur timings, recorded []bool) {
		var on, off timings
		for i, d := range dur {
			if recorded[i] {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
		recordedWall += on.sum()
		if len(on) > 0 && len(off) > 0 {
			n := float64(len(dur))
			onS += n * mean(on)
			offS += n * mean(off)
		}
	}
	for _, ops := range []*opLog{&l.scrape, &l.push, &l.rules, &l.update} {
		pair(ops.dur, ops.recorded)
	}
	var classDur [numClasses]timings
	var classRec [numClasses][]bool
	for i := range in.ql.answers {
		a := &in.ql.answers[i]
		classDur[a.req.class].add(a.dur)
		classRec[a.req.class] = append(classRec[a.req.class], a.recorded)
	}
	for c := range classDur {
		pair(classDur[c], classRec[c])
	}
	gap := ratio(recordedWall-selfSum, recordedWall)
	overhead := ratio(onS, offS) - 1
	rep.put("trace.gap_ratio", gap, "ratio")
	rep.put("trace.overhead_ratio", overhead, "ratio")
	var table strings.Builder
	writeAttribution(&table, s.sc.name, layers, recordedWall, gap, overhead)
	rep.attribution = table.String()
}

// distinctQueries returns the request list's PromQL expressions, each once.
func distinctQueries(reqs []*request) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range reqs {
		if r.query != "" && !seen[r.query] {
			seen[r.query] = true
			out = append(out, r.query)
		}
	}
	return out
}

// probeEach times f over the inputs (at most 512 of them) and returns the
// mean in microseconds.
func probeEach(inputs []string, f func(string)) float64 {
	if len(inputs) > 512 {
		inputs = inputs[:512]
	}
	w := startWatch()
	for _, in := range inputs {
		f(in)
	}
	return ratio(1e6*w.seconds(), float64(len(inputs)))
}

// probeRemoteWrite decodes a captured push body, then re-encodes its
// batches, returning nanoseconds per sample for each direction.
func probeRemoteWrite(body []byte) (encodeNS, decodeNS float64) {
	if len(body) == 0 {
		return 0, 0
	}
	const rounds = 5
	var batches [][]*expofmt.Family
	samples := 0
	w := startWatch()
	for r := 0; r < rounds; r++ {
		dec := remotewrite.NewDecoder(bytes.NewReader(body))
		for {
			fams, err := dec.Next()
			if err != nil {
				break
			}
			if r == 0 {
				// The decoder reuses its buffers; keep a deep enough copy.
				cp := make([]*expofmt.Family, len(fams))
				for i, f := range fams {
					c := *f
					c.Metrics = append([]expofmt.Metric(nil), f.Metrics...)
					cp[i] = &c
					samples += len(f.Metrics)
				}
				batches = append(batches, cp)
			}
		}
		dec.Release()
	}
	decodeNS = ratio(1e9*w.seconds(), float64(rounds*samples))
	w = startWatch()
	for r := 0; r < rounds; r++ {
		enc := remotewrite.NewEncoder(io.Discard, true)
		for _, b := range batches {
			_ = enc.WriteBatch(b) // io.Discard cannot fail
		}
	}
	encodeNS = ratio(1e9*w.seconds(), float64(rounds*samples))
	return encodeNS, decodeNS
}

// probeChunkenc encodes and decodes 120-sample chunks of RAPL-shaped data:
// an energy counter growing by noisy power × cadence.
func probeChunkenc(seed int64) (encodeNS, decodeNS, bytesPerSample float64) {
	const chunks, per = 400, 120
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, chunks*per)
	joules := 0.0
	for i := range vals {
		joules += 250 * (1 + 0.07*rng.NormFloat64()) * backfillCadence.Seconds()
		vals[i] = joules
	}
	built := make([]*chunkenc.Chunk, chunks)
	w := startWatch()
	for c := range built {
		ch := chunkenc.NewChunk()
		for i := 0; i < per; i++ {
			_ = ch.Append(int64(c*per+i)*backfillCadence.Milliseconds(), vals[c*per+i]) // in-order by construction
		}
		built[c] = ch
	}
	encodeNS = 1e9 * w.seconds() / (chunks * per)
	size := 0
	w = startWatch()
	for _, ch := range built {
		for it := ch.Iterator(); it.Next(); {
			it.At()
		}
	}
	decodeNS = 1e9 * w.seconds() / (chunks * per)
	for _, ch := range built {
		size += len(ch.Bytes())
	}
	return encodeNS, decodeNS, float64(size) / (chunks * per)
}

// probeOwns times the API server's ownership check on bare job ids, the
// form the LB extracts from a query.
func (s *stack) probeOwns() float64 {
	jobs := s.openableJobs()
	if len(jobs) > 256 {
		jobs = jobs[:256]
	}
	w := startWatch()
	for _, j := range jobs {
		_, _ = s.apiSrv.OwnsUnit(j.Spec.User, strconv.FormatInt(j.ID, 10))
	}
	return ratio(1e6*w.seconds(), float64(len(jobs)))
}

// probeMergeReplicas times the ring's read merge on three copies of a
// storage read captured during the run: the replicated ring is not a
// workload, but its merge routine must not change unmeasured.
func (s *stack) probeMergeReplicas() float64 {
	var series []model.Series
	for _, c := range s.traced.captured {
		out, err := s.querier.SelectWithHints(c.hints, c.matchers...)
		if err == nil && len(out) > len(series) {
			series = out
		}
	}
	samples := 0
	for i := range series {
		samples += len(series[i].Samples)
	}
	if samples == 0 {
		return 0
	}
	const rounds = 20
	w := startWatch()
	for r := 0; r < rounds; r++ {
		lb.MergeReplicaSeries([][]model.Series{series, series, series})
	}
	return 1e9 * w.seconds() / float64(rounds*3*samples)
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
