package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/promapi"
	"repro/internal/promql"
	"repro/internal/slurmsim"
)

// reqClass groups requests the way the end-to-end metrics report them.
type reqClass int

const (
	classLight   reqClass = iota // per-job panels; downsample-eligible and seam reads
	classHeavy                   // fleet-wide aggregations; raw-forced long ranges
	classInstant                 // /api/v1/query rollups
	classMeta                    // labels and label values
	numClasses
)

var classNames = [numClasses]string{"range_light", "range_heavy", "instant", "meta"}

// request is one dashboard HTTP request and what a correct answer is.
type request struct {
	class  reqClass
	user   string
	path   string
	params string
	// want is the expected status: 200, or 403 for a planted request that
	// names someone else's job.
	want int
	// query, start, end, step reproduce the request on the engine directly
	// (instant queries evaluate at end); label is the name a label-values
	// lookup asks for.
	query      string
	start, end time.Time
	step       time.Duration
	label      string
}

func (r *request) key() string { return r.user + " " + r.path + "?" + r.params }

// tsParam formats a time the way Grafana sends it, and parseTS reads it back
// exactly as promapi does, so the checker evaluates the very instant the
// server saw.
func tsParam(t time.Time) string {
	return strconv.FormatFloat(float64(t.UnixMilli())/1000, 'f', 3, 64)
}

func parseTS(s string) time.Time {
	f, _ := strconv.ParseFloat(s, 64)
	return model.MillisToTime(int64(f * 1000))
}

func rangeReq(class reqClass, user, query string, start, end time.Time, step time.Duration) *request {
	v := url.Values{}
	v.Set("query", query)
	v.Set("start", tsParam(start))
	v.Set("end", tsParam(end))
	v.Set("step", strconv.Itoa(int(step/time.Second)))
	return &request{class: class, user: user, path: "/api/v1/query_range", params: v.Encode(), want: http.StatusOK,
		query: query, start: parseTS(v.Get("start")), end: parseTS(v.Get("end")), step: step}
}

func instantReq(user, query string, at time.Time) *request {
	v := url.Values{}
	v.Set("query", query)
	v.Set("time", tsParam(at))
	return &request{class: classInstant, user: user, path: "/api/v1/query", params: v.Encode(), want: http.StatusOK,
		query: query, end: parseTS(v.Get("time"))}
}

// metaReqs is the pair of variable lookups Grafana issues when a dashboard
// loads; start/end scope them as Grafana does (and keep the LB's cache key
// unique per open).
func metaReqs(user, label string, start, end time.Time) []*request {
	v := url.Values{}
	v.Set("start", tsParam(start))
	v.Set("end", tsParam(end))
	return []*request{
		{class: classMeta, user: user, path: "/api/v1/labels", params: v.Encode(), want: http.StatusOK},
		{class: classMeta, user: user, path: "/api/v1/label/" + label + "/values", params: v.Encode(), want: http.StatusOK, label: label},
	}
}

// jobClass is the hardware class of the job's partition ("part-<class>").
func jobClass(j *slurmsim.Job) string { return strings.TrimPrefix(j.Spec.Partition, "part-") }

// jobPanels are the four range panels and two rollups of a job dashboard
// over [start, end].
func jobPanels(user string, j *slurmsim.Job, start, end time.Time, rollup string) []*request {
	id, class := strconv.FormatInt(j.ID, 10), jobClass(j)
	fourth := fmt.Sprintf(`uuid:host_watts:%s{uuid=%q}`, class, id)
	if j.Spec.GPUsPerNode > 0 {
		fourth = fmt.Sprintf(`uuid:gpu_watts:%s{uuid=%q}`, class, id)
	}
	return []*request{
		rangeReq(classLight, user, fmt.Sprintf(`uuid:total_watts:%s{uuid=%q}`, class, id), start, end, scrapeInterval),
		rangeReq(classLight, user, fmt.Sprintf(`rate(ceems_compute_unit_cpu_user_seconds_total{uuid=%q}[2m])`, id), start, end, scrapeInterval),
		rangeReq(classLight, user, fmt.Sprintf(`ceems_compute_unit_memory_used_bytes{uuid=%q}`, id), start, end, scrapeInterval),
		rangeReq(classLight, user, fourth, start, end, scrapeInterval),
		instantReq(user, fmt.Sprintf(`avg_over_time(uuid:total_watts:%s{uuid=%q}[%s])`, class, id, rollup), end),
		instantReq(user, fmt.Sprintf(`max_over_time(ceems_compute_unit_memory_used_bytes{uuid=%q}[%s])`, id, rollup), end),
	}
}

// fleetPanels are the admin overview: four fleet-wide range panels and two
// rollups. variant picks between two overview dashboards.
func fleetPanels(start, end time.Time, rollup string, variant int) []*request {
	panels := [][]string{{
		`sum by (instance) (rate(ceems_rapl_package_joules_total[2m]))`,
		`sum by (nodeclass) (ceems_ipmi_dcmi_current_watts)`,
		`sum by (nodeclass) (ceems_compute_units)`,
		`avg by (instance) (DCGM_FI_DEV_GPU_UTIL)`,
	}, {
		`sum by (instance) (rate(ceems_cpu_seconds_total{mode=~"user|system"}[2m]))`,
		`sum by (instance) (ceems_ipmi_dcmi_current_watts)`,
		`count by (instance) (ceems_compute_unit_memory_used_bytes)`,
		`sum by (instance) (DCGM_FI_DEV_POWER_USAGE)`,
	}}[variant%2]
	var out []*request
	for _, q := range panels {
		out = append(out, rangeReq(classHeavy, adminUser, q, start, end, scrapeInterval))
	}
	return append(out,
		instantReq(adminUser, fmt.Sprintf(`sum(avg_over_time(ceems_ipmi_dcmi_current_watts[%s]))`, rollup), end),
		instantReq(adminUser, `count(ceems_compute_unit_memory_used_bytes)`, end))
}

func promDur(d time.Duration) string { return strconv.Itoa(int(d/time.Second)) + "s" }

// openMix builds the cold-dashboard traffic: `opens` dashboard loads, nine
// in ten a user opening one of their own jobs over its lifetime, one in ten
// the admin fleet overview, one in fifty of the user opens planted with
// someone else's job (must be refused). Every window carries its own
// millisecond phase, so no (query, window) pair repeats and neither cache
// can serve or splice anything.
func openMix(rng *rand.Rand, jobs []*slurmsim.Job, now time.Time, window time.Duration, opens int, users int) (out [][]*request) {
	rollup := promDur(window)
	if len(jobs) == 0 {
		opens = 0
	}
	for i := 0; i < opens; i++ {
		phase := time.Duration(1+rng.Intn(14000)) * time.Millisecond
		if i%10 == 9 {
			end := now.Add(-phase)
			start := end.Add(-window)
			open := metaReqs(adminUser, "instance", start, end)
			out = append(out, append(open, fleetPanels(start, end, rollup, i/10)...))
			continue
		}
		j := jobs[rng.Intn(len(jobs))]
		end := now
		if !j.EndTime.IsZero() && j.EndTime.Before(end) {
			end = j.EndTime
		}
		end = end.Add(-phase)
		start := j.StartTime.Add(-phase)
		if min := end.Add(-window); start.Before(min) {
			start = min
		}
		if end.Sub(start) < 2*time.Minute {
			start = end.Add(-2 * time.Minute)
		}
		user := j.Spec.User
		open := metaReqs(user, "uuid", start, end)
		if i%50 == 25 {
			// Planted: another user asks for this job's first panel.
			other := fmt.Sprintf("user%02d", (userIndex(user)+1+rng.Intn(users-1))%users)
			for _, r := range open {
				r.user = other
			}
			r := jobPanels(other, j, start, end, rollup)[0]
			r.want = http.StatusForbidden
			out = append(out, append(open, r))
			continue
		}
		out = append(out, append(open, jobPanels(user, j, start, end, rollup)...))
	}
	return out
}

func userIndex(user string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(user, "user"))
	return n
}

// refreshBoards picks the six dashboards a refresh cycle redraws: the four
// jobs with the most runtime left (so they outlive the run) and the two
// fleet overviews.
func refreshBoards(jobs []*slurmsim.Job, now time.Time) []*slurmsim.Job {
	var running []*slurmsim.Job
	for _, j := range jobs {
		if j.EndTime.IsZero() {
			running = append(running, j)
		}
	}
	left := func(j *slurmsim.Job) time.Duration { return j.Spec.Duration - now.Sub(j.StartTime) }
	sort.Slice(running, func(a, b int) bool {
		if la, lb := left(running[a]), left(running[b]); la != lb {
			return la > lb
		}
		return running[a].ID < running[b].ID
	})
	if len(running) > 4 {
		running = running[:4]
	}
	return running
}

// refreshMix is one refresh cycle at `now`: every board redraws its four
// range panels over [now−window, now] and its two rollups, plus one pair of
// variable lookups. Windows sit on the scrape grid, so each cycle overlaps
// the previous one in all but one step.
func refreshMix(boards []*slurmsim.Job, now time.Time, window time.Duration) []*request {
	start, rollup := now.Add(-window), promDur(window)
	out := metaReqs(adminUser, "instance", start, now)
	for _, j := range boards {
		out = append(out, jobPanels(j.Spec.User, j, start, now, rollup)...)
	}
	for v := 0; v < 2; v++ {
		out = append(out, fleetPanels(start, now, rollup, v)...)
	}
	return out
}

// longRangeMix builds the history traffic over the backfilled series: each
// open is one admin dashboard of six requests, never repeating a (query,
// window) pair. Light panels are downsample-eligible or cross the hot/cold
// seam; heavy panels force raw reads over days.
func longRangeMix(rng *rand.Rand, bf backfillSpec, now time.Time, opens int) [][]*request {
	var out [][]*request
	for i := 0; i < opens; i++ {
		inst := fmt.Sprintf(`instance=%q`, bf.instance(rng.Intn(bf.instances)))
		phase := time.Duration(1+rng.Intn(59000)) * time.Millisecond
		end := now.Add(-phase)
		month, week := end.Add(-time.Duration(bf.days)*24*time.Hour+6*time.Hour), end.Add(-7*24*time.Hour)
		open := metaReqs(adminUser, "instance", week, end)
		open = append(open,
			rangeReq(classLight, adminUser, `avg_over_time(ceems_ipmi_dcmi_current_watts{`+inst+`}[6h])`, month, end, 6*time.Hour),
			rangeReq(classLight, adminUser, `max_over_time(instance:node_watts:intel{`+inst+`}[1h])`, week, end, time.Hour),
			rangeReq(classLight, adminUser, `ceems_ipmi_dcmi_current_watts{`+inst+`}`, end.Add(-6*time.Hour), end, time.Minute),
		)
		if i%2 == 0 {
			open = append(open, rangeReq(classHeavy, adminUser, `rate(ceems_rapl_package_joules_total{`+inst+`}[5m])`, week, end, time.Hour))
		} else {
			open = append(open, rangeReq(classHeavy, adminUser, `instance:node_watts:intel{`+inst+`}`, month, end, 2*time.Hour))
		}
		open = append(open, instantReq(adminUser, `avg_over_time(ceems_ipmi_dcmi_current_watts{`+inst+`}[1d])`, end))
		out = append(out, open)
	}
	return out
}

// requestDigest is the FNV-1a hash of the request list in issue order.
func requestDigest(reqs []*request) uint64 {
	h := fnv.New64a()
	for _, r := range reqs {
		io.WriteString(h, r.key())
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// answer is what a client saw for one request.
type answer struct {
	req      *request
	dur      time.Duration // CPU time the process spent on it (see stopwatch)
	status   int
	body     []byte // kept for sampled requests only
	good     bool
	err      error
	recorded bool
}

// ok reports whether the answer is the expected one: the wanted status and,
// for a 200, a success envelope.
func (a *answer) ok() bool { return a.good }

// sampleEvery is the share of answers checked against the engine: 1 in 50.
const sampleEvery = 50

// queryLog is what the viewer measured in one query stage.
type queryLog struct {
	answers []answer
	busy    time.Duration // Σ CPU time of the requests
	// allocBytes is the process's allocation over the stage.
	allocBytes uint64
}

func (ql *queryLog) add(a answer) {
	ql.answers = append(ql.answers, a)
	ql.busy += a.dur
}

// client is one closed-loop dashboard viewer: it sends the next request when
// the previous answer is read.
type client struct {
	s    *stack
	http *http.Client
}

func (s *stack) newClient() *client {
	return &client{s: s, http: &http.Client{Transport: handlerTransport{s.lbHandler}}}
}

// do issues one request; seq is its position in the run's request list,
// which decides whether spans are recorded (every other request of a traced
// run) and whether the body is kept for checking (1 in 50).
func (c *client) do(ctx context.Context, r *request, seq int) answer {
	a := answer{req: r}
	rec := c.s.rec
	if rec != nil {
		a.recorded = seq%2 == 0
		rec.on.Store(a.recorded)
		rec.req.Store(int64(seq))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, lbURL+r.path+"?"+r.params, nil)
	if err != nil {
		a.err = err
		return a
	}
	root, prev := rec.enter(layerClient, classNames[r.class])
	w := startWatch()
	req.Header.Set("X-Grafana-User", r.user)
	if root != 0 {
		req.Header.Set(promapi.TraceHeader, "1")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		a.err = err
		rec.leave(root, prev, 0, 0, "error")
		return a
	}
	head := make([]byte, 32)
	n, _ := io.ReadFull(resp.Body, head)
	var rest bytes.Buffer
	keep := seq%sampleEvery == 0 && r.want == http.StatusOK
	if keep {
		_, a.err = io.Copy(&rest, resp.Body)
	} else {
		_, a.err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	a.dur = w.stop()
	rec.leave(root, prev, 0, 0, "")
	a.status = resp.StatusCode
	a.good = a.err == nil && a.status == r.want &&
		(a.status != http.StatusOK || bytes.HasPrefix(head[:n], []byte(`{"status":"success"`)))
	if keep {
		a.body = append(head[:n], rest.Bytes()...)
	}
	return a
}

// runQueries issues the opens one request at a time. Once the wall-clock
// deadline has passed and a quarter of the opens are done it stops opening
// dashboards: when the sandbox is starved of CPU the run measures fewer
// requests instead of overrunning the driver's time limit (per-request
// medians do not depend on how many were measured).
func (s *stack) runQueries(ctx context.Context, opens [][]*request, deadline time.Time) queryLog {
	var ql queryLog
	cl := s.newClient()
	for i, open := range opens {
		if i >= len(opens)/4 && time.Now().After(deadline) {
			break
		}
		for _, r := range open {
			ql.add(cl.do(ctx, r, len(ql.answers)))
		}
	}
	return ql
}

// verify re-evaluates a sampled request on the engine, straight against the
// storage and past LB and caches, and compares the decoded answers.
func (s *stack) verify(a *answer) error {
	r := a.req
	var want any
	eng := promql.NewEngine()
	switch {
	case r.class == classMeta:
		list := s.querier.LabelNames()
		if r.label != "" {
			list = s.querier.LabelValues(r.label)
		}
		if list == nil {
			list = []string{}
		}
		want = map[string]any{"status": "success", "data": list}
	case r.class == classInstant:
		val, err := eng.Instant(s.querier, r.query, r.end)
		if err != nil {
			return fmt.Errorf("direct evaluation: %w", err)
		}
		var result any
		typ := "vector"
		switch v := val.(type) {
		case promql.Vector:
			out := make([]map[string]any, len(v))
			for i, smp := range v {
				out[i] = map[string]any{"metric": smp.Labels.Map(), "value": pair(smp.T, smp.V)}
			}
			result = out
		case promql.Scalar:
			typ, result = "scalar", pair(v.T, v.V)
		default:
			return fmt.Errorf("unexpected result type %s", val.Type())
		}
		want = envelope(typ, result)
	default:
		m, err := eng.Range(s.querier, r.query, r.start, r.end, r.step)
		if err != nil {
			return fmt.Errorf("direct evaluation: %w", err)
		}
		out := make([]map[string]any, len(m))
		for i, sr := range m {
			vals := make([]any, len(sr.Samples))
			for k, smp := range sr.Samples {
				vals[k] = pair(smp.T, smp.V)
			}
			out[i] = map[string]any{"metric": sr.Labels.Map(), "values": vals}
		}
		want = envelope("matrix", out)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		return err
	}
	var got, exp any
	if err := json.Unmarshal(a.body, &got); err != nil {
		return fmt.Errorf("undecodable answer: %w", err)
	}
	if err := json.Unmarshal(wantJSON, &exp); err != nil {
		return err
	}
	if !reflect.DeepEqual(got, exp) {
		return fmt.Errorf("answer differs from direct evaluation (%d vs %d bytes)", len(a.body), len(wantJSON))
	}
	return nil
}

func pair(t int64, v float64) []any {
	return []any{float64(t) / 1000, strconv.FormatFloat(v, 'g', -1, 64)}
}

func envelope(typ string, result any) map[string]any {
	return map[string]any{"status": "success", "data": map[string]any{"resultType": typ, "result": result}}
}
