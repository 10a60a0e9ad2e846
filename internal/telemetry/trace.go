// Per-query tracing: a QueryTrace accumulates per-stage span durations as
// an evaluation runs (the engine reports parse/prefetch/eval/merge through
// the request context), and a QueryLog tracks every in-flight query plus a
// ring buffer of completed queries that crossed the slow threshold. promapi
// exposes both via /api/v1/status/queries and the opt-in X-Query-Trace
// response header.

package telemetry

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one named stage of a query's evaluation.
type Span struct {
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
}

// QueryTrace collects stage durations for one query. Stages repeating
// within a query (a spliced range query evaluates twice) accumulate into
// one span. All methods are nil-safe: an untraced evaluation pays one
// branch.
type QueryTrace struct {
	mu    sync.Mutex
	spans []Span
}

// ObserveStage adds d to the named stage's span.
func (t *QueryTrace) ObserveStage(stage string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for i := range t.spans {
		if t.spans[i].Stage == stage {
			t.spans[i].Seconds += d.Seconds()
			t.mu.Unlock()
			return
		}
	}
	t.spans = append(t.spans, Span{Stage: stage, Seconds: d.Seconds()})
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in first-occurrence order.
func (t *QueryTrace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// HeaderValue renders the spans for the X-Query-Trace response header:
// "parse=0.000012 prefetch=0.000345 ..." (seconds, ASCII only).
func (t *QueryTrace) HeaderValue() string {
	var b strings.Builder
	for i, s := range t.Spans() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.6f", s.Stage, s.Seconds)
	}
	return b.String()
}

type traceCtxKey struct{}

// ContextWithTrace attaches t to the context; the engine's stage
// observations find it with TraceFrom. A nil trace returns ctx unchanged.
func ContextWithTrace(ctx context.Context, t *QueryTrace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom returns the trace attached to ctx, or nil.
func TraceFrom(ctx context.Context) *QueryTrace {
	t, _ := ctx.Value(traceCtxKey{}).(*QueryTrace)
	return t
}

// DefaultSlowCapacity is the size of the slow-query ring.
const DefaultSlowCapacity = 128

// QueryLog tracks in-flight queries and retains the slowest completed ones
// in a bounded ring. Begin/End are cheap (one mutex round-trip each, off
// the evaluation path); a nil *QueryLog disables everything.
type QueryLog struct {
	// SlowThreshold is the duration at or above which a completed query
	// lands in the slow ring; <= 0 disables the slow log (active-query
	// tracking still works).
	SlowThreshold time.Duration
	// Now supplies the clock; nil means time.Now.
	Now func() time.Time

	mu       sync.Mutex
	nextID   uint64
	active   map[uint64]*RunningQuery
	slow     []SlowQuery
	slowNext int
	slowSeen uint64
}

// RunningQuery is one in-flight query returned by Begin; call End exactly
// once when evaluation finishes.
type RunningQuery struct {
	l     *QueryLog
	id    uint64
	kind  string
	query string
	start time.Time
	trace *QueryTrace
}

// Trace returns the query's trace (attach it to the evaluation context).
// Nil-safe.
func (q *RunningQuery) Trace() *QueryTrace {
	if q == nil {
		return nil
	}
	return q.trace
}

func (l *QueryLog) now() time.Time {
	if l.Now != nil {
		return l.Now()
	}
	return time.Now()
}

// Begin registers an in-flight query. Nil-safe: a nil log returns a nil
// RunningQuery whose methods no-op.
func (l *QueryLog) Begin(kind, query string) *RunningQuery {
	if l == nil {
		return nil
	}
	q := &RunningQuery{l: l, kind: kind, query: query, start: l.now(), trace: &QueryTrace{}}
	l.mu.Lock()
	l.nextID++
	q.id = l.nextID
	if l.active == nil {
		l.active = map[uint64]*RunningQuery{}
	}
	l.active[q.id] = q
	l.mu.Unlock()
	return q
}

// End completes the query, recording it in the slow ring when its total
// duration crossed the threshold. Nil-safe.
func (q *RunningQuery) End(err error) {
	if q == nil {
		return
	}
	l := q.l
	dur := l.now().Sub(q.start)
	l.mu.Lock()
	delete(l.active, q.id)
	if l.SlowThreshold > 0 && dur >= l.SlowThreshold {
		sq := SlowQuery{
			Kind:    q.kind,
			Query:   q.query,
			StartMs: q.start.UnixMilli(),
			Seconds: dur.Seconds(),
			Spans:   q.trace.Spans(),
		}
		if err != nil {
			sq.Error = err.Error()
		}
		if len(l.slow) < DefaultSlowCapacity {
			l.slow = append(l.slow, sq)
			l.slowNext = len(l.slow) % DefaultSlowCapacity
		} else {
			l.slow[l.slowNext] = sq
			l.slowNext = (l.slowNext + 1) % DefaultSlowCapacity
		}
		l.slowSeen++
	}
	l.mu.Unlock()
}

// ActiveQuery is the JSON shape of one in-flight query.
type ActiveQuery struct {
	ID         uint64  `json:"id"`
	Kind       string  `json:"kind"`
	Query      string  `json:"query"`
	StartMs    int64   `json:"start_ms"`
	AgeSeconds float64 `json:"age_seconds"`
}

// SlowQuery is the JSON shape of one slow-ring entry.
type SlowQuery struct {
	Kind    string  `json:"kind"`
	Query   string  `json:"query"`
	StartMs int64   `json:"start_ms"`
	Seconds float64 `json:"seconds"`
	Error   string  `json:"error,omitempty"`
	Spans   []Span  `json:"spans,omitempty"`
}

// QueryLogStatus is the payload of /api/v1/status/queries.
type QueryLogStatus struct {
	Active []ActiveQuery `json:"active"`
	// Slow holds the retained slow queries, newest first.
	Slow                 []SlowQuery `json:"slow"`
	SlowThresholdSeconds float64     `json:"slow_threshold_s"`
	// SlowTotal counts every query that ever crossed the threshold,
	// including ones the ring has since evicted.
	SlowTotal uint64 `json:"slow_total"`
}

// Status snapshots the log. Nil-safe (returns an empty status).
func (l *QueryLog) Status() QueryLogStatus {
	st := QueryLogStatus{Active: []ActiveQuery{}, Slow: []SlowQuery{}}
	if l == nil {
		return st
	}
	now := l.now()
	l.mu.Lock()
	st.SlowThresholdSeconds = l.SlowThreshold.Seconds()
	st.SlowTotal = l.slowSeen
	for _, q := range l.active {
		st.Active = append(st.Active, ActiveQuery{
			ID:         q.id,
			Kind:       q.kind,
			Query:      q.query,
			StartMs:    q.start.UnixMilli(),
			AgeSeconds: now.Sub(q.start).Seconds(),
		})
	}
	// Newest first: walk the ring backwards from the last insert.
	n := len(l.slow)
	for i := 0; i < n; i++ {
		st.Slow = append(st.Slow, l.slow[((l.slowNext-1-i)%n+n)%n])
	}
	l.mu.Unlock()
	sort.Slice(st.Active, func(i, j int) bool { return st.Active[i].ID < st.Active[j].ID })
	return st
}
