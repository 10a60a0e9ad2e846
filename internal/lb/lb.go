// Package lb implements the CEEMS load balancer (paper §II.B.c): a reverse
// proxy in front of one or more Prometheus/Thanos backends that adds the
// access control Grafana lacks. Every query is introspected — the compute
// unit identifiers are extracted from the PromQL expression itself — and
// the requesting user (from the X-Grafana-User header Grafana attaches) is
// checked for ownership against the CEEMS API server, either through its
// DB directly or over its verification endpoint. As a load balancer it
// supports the classic round-robin and least-connection strategies.
package lb

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/labels"
	"repro/internal/promql"
	"repro/internal/querycache"
	"repro/internal/telemetry"
)

// OwnershipChecker answers whether a user may see a compute unit's
// metrics.
type OwnershipChecker interface {
	// Owns reports whether user owns the unit with the given (bare or
	// fully-qualified) identifier.
	Owns(ctx context.Context, user, uuid string) (bool, error)
	// IsAdmin reports whether the user bypasses ownership checks.
	IsAdmin(ctx context.Context, user string) bool
}

// APIServerChecker adapts the in-process API server as the checker — the
// "directly querying the CEEMS API server's DB" path of the paper.
type APIServerChecker struct {
	Server interface {
		OwnsUnit(user, uuid string) (bool, error)
		IsAdmin(user string) bool
	}
}

// Owns implements OwnershipChecker.
func (c *APIServerChecker) Owns(_ context.Context, user, uuid string) (bool, error) {
	return c.Server.OwnsUnit(user, uuid)
}

// IsAdmin implements OwnershipChecker.
func (c *APIServerChecker) IsAdmin(_ context.Context, user string) bool {
	return c.Server.IsAdmin(user)
}

// HTTPChecker queries the API server's verify endpoint — the fallback
// "when the DB file is not accessible".
type HTTPChecker struct {
	BaseURL string
	Client  *http.Client
}

// Owns implements OwnershipChecker via GET /api/v1/units/verify.
func (c *HTTPChecker) Owns(ctx context.Context, user, uuid string) (bool, error) {
	return c.verify(ctx, user, uuid)
}

// IsAdmin implements OwnershipChecker via GET /api/v1/units/verify with no
// uuid. It fails closed: any error or unexpected status is "not admin".
func (c *HTTPChecker) IsAdmin(ctx context.Context, user string) bool {
	admin, err := c.verify(ctx, user, "")
	return err == nil && admin
}

// verify asks the verify endpoint whether user owns uuid, or with uuid
// empty whether user is an admin: 200 is yes, 403 is no, anything else an
// error.
func (c *HTTPChecker) verify(ctx context.Context, user, uuid string) (bool, error) {
	u := c.BaseURL + "/api/v1/units/verify?user=" + url.QueryEscape(user)
	if uuid != "" {
		u += "&uuid=" + url.QueryEscape(uuid)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("X-Grafana-User", user)
	client := c.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return true, nil
	case http.StatusForbidden:
		return false, nil
	}
	return false, fmt.Errorf("lb: verify endpoint returned %s", resp.Status)
}

// Strategy selects how backends are balanced.
type Strategy string

const (
	RoundRobin      Strategy = "round-robin"
	LeastConnection Strategy = "least-connection"
)

// Backend is one Prometheus/Thanos instance behind the LB.
type Backend struct {
	URL *url.URL

	healthy atomic.Bool
	active  atomic.Int64 // in-flight requests
	served  atomic.Int64 // total requests proxied
}

// NewBackend parses the base URL and returns a healthy backend.
func NewBackend(raw string) (*Backend, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("lb: bad backend url %q: %w", raw, err)
	}
	b := &Backend{URL: u}
	b.healthy.Store(true)
	return b, nil
}

// Healthy reports the backend's health flag.
func (b *Backend) Healthy() bool { return b.healthy.Load() }

// SetHealthy updates the health flag (driven by health checks).
func (b *Backend) SetHealthy(v bool) { b.healthy.Store(v) }

// Served returns how many requests this backend has handled.
func (b *Backend) Served() int64 { return b.served.Load() }

// Active returns the number of in-flight requests.
func (b *Backend) Active() int64 { return b.active.Load() }

// LB is the load balancer handler.
type LB struct {
	Backends []*Backend
	Strategy Strategy
	Checker  OwnershipChecker
	// Transport issues the proxied requests; defaults to
	// http.DefaultTransport.
	Transport http.RoundTripper
	// QueryTimeout bounds each proxied request end to end (ownership check
	// plus backend round-trip); 0 disables.
	QueryTimeout time.Duration
	// Cache is never filled or read by the LB, which keeps no response
	// cache: promapi's range cache behind it is the stack's only one.
	//
	// Deprecated: kept for bench/ until T2 (ROADMAP U).
	Cache *querycache.Cache
	// CacheTTL is never read by the LB.
	//
	// Deprecated: kept for bench/ until T2 (ROADMAP U).
	CacheTTL time.Duration
	// CacheNow is never read by the LB.
	//
	// Deprecated: kept for bench/ until T2 (ROADMAP U).
	CacheNow func() time.Time
	// ProxyRetries is how many additional distinct backends a safe (GET or
	// HEAD) request may fail over to when a backend dies before sending any
	// response byte; 0 disables failover. In front of a replicated cluster
	// the right budget is quorum-derived: reads tolerate R−W node losses,
	// so R−W retries reach every backend that could still answer. Requests
	// with bodies never retry — the body was consumed by the first attempt.
	ProxyRetries int

	// Metrics, when set (see InstrumentTelemetry), serves the registry's
	// exposition at GET /metrics — before access control, like any
	// exporter's scrape endpoint.
	Metrics *telemetry.Registry

	rrNext atomic.Uint64
	denied atomic.Int64
	// failovers counts proxied requests that succeeded only on a retry
	// backend.
	failovers atomic.Int64
	// proxied counts requests forwarded to a backend; proxyErrors counts the
	// ones answered 502 after exhausting retries.
	proxied     atomic.Int64
	proxyErrors atomic.Int64
}

// InstrumentTelemetry registers the LB's counters on reg as gather-time
// bridges over the same atomics Denied()/Failovers() read — the JSON-ish
// accessors and /metrics can never disagree — and arranges for ServeHTTP to
// serve the registry at GET /metrics. Call once at wiring time, after
// Backends is populated.
func (lb *LB) InstrumentTelemetry(reg *telemetry.Registry) {
	reg.CounterFunc("telemetry_lb_denied_total",
		"Requests rejected by access control: an unowned unit, or a non-admin off the read surface.",
		func() float64 { return float64(lb.denied.Load()) })
	reg.CounterFunc("telemetry_lb_failovers_total",
		"Proxied requests that succeeded only on a retry backend.",
		func() float64 { return float64(lb.failovers.Load()) })
	reg.CounterFunc("telemetry_lb_proxied_total",
		"Requests forwarded to a backend.",
		func() float64 { return float64(lb.proxied.Load()) })
	reg.CounterFunc("telemetry_lb_proxy_errors_total",
		"Requests answered 502 after every eligible backend failed.",
		func() float64 { return float64(lb.proxyErrors.Load()) })
	reg.GaugeFunc("telemetry_lb_backends_healthy",
		"Backends currently passing health checks.",
		func() float64 {
			n := 0
			for _, b := range lb.Backends {
				if b.Healthy() {
					n++
				}
			}
			return float64(n)
		})
	for _, b := range lb.Backends {
		b := b
		addr := b.URL.String()
		reg.CounterFunc("telemetry_lb_backend_served_total",
			"Requests proxied to this backend.",
			func() float64 { return float64(b.Served()) }, "backend", addr)
		reg.GaugeFunc("telemetry_lb_backend_active",
			"In-flight requests on this backend.",
			func() float64 { return float64(b.Active()) }, "backend", addr)
	}
	lb.Metrics = reg
}

// Denied returns how many requests were rejected by access control.
func (lb *LB) Denied() int64 { return lb.denied.Load() }

// pick selects a backend per the strategy; nil when none are healthy.
func (lb *LB) pick() *Backend {
	healthy := 0
	var best *Backend // least-connection: the first healthy backend with the fewest in flight
	for _, b := range lb.Backends {
		if b.Healthy() {
			healthy++
			if best == nil || b.Active() < best.Active() {
				best = b
			}
		}
	}
	if healthy == 0 || lb.Strategy == LeastConnection {
		return best
	}
	// Round-robin: the n-th healthy backend, counting from the first.
	n := (lb.rrNext.Add(1) - 1) % uint64(healthy)
	for _, b := range lb.Backends {
		if b.Healthy() {
			if n == 0 {
				return b
			}
			n--
		}
	}
	return best // backends went unhealthy since the count; best was healthy then
}

// ExtractUUIDs parses the PromQL expression and collects every compute
// unit identifier it references via uuid label matchers, sorted and
// without duplicates. Equality matchers contribute their value; plain
// alternation regexps ("123|456") contribute each alternative
// (labels.Matcher.SetMatches). Regexps that cannot be enumerated, or whose
// set admits the empty value (`uuid=~""`, `uuid=~"a|"`), return an error —
// the LB fails closed.
func ExtractUUIDs(query string) ([]string, error) {
	uuids, err := appendUUIDs(nil, query)
	if err != nil {
		return nil, err
	}
	slices.Sort(uuids)
	return slices.Compact(uuids), nil
}

// appendUUIDs is ExtractUUIDs appending to dst, in selector order and with
// any duplicates: the one walk over a query's selectors that both
// ExtractUUIDs and authorize use.
func appendUUIDs(dst []string, query string) ([]string, error) {
	// Grafana panels re-issue the same expressions on every refresh; the
	// shared parse cache makes this introspection a lookup, not a parse.
	expr, err := promql.ParseExprCached(query)
	if err != nil {
		return dst, fmt.Errorf("lb: unparseable query: %w", err)
	}
	var visitErr error
	promql.WalkSelectors(expr, func(_ promql.Expr, vs *promql.VectorSelector) {
		for _, m := range vs.Matchers {
			if m.Name != "uuid" {
				continue
			}
			switch m.Type {
			case labels.MatchEqual:
				dst = append(dst, m.Value)
			case labels.MatchRegexp:
				alts := m.SetMatches()
				if alts == nil || slices.Contains(alts, "") {
					visitErr = fmt.Errorf("lb: uuid regexp %q is not enumerable", m.Value)
					return
				}
				dst = append(dst, alts...)
			default:
				visitErr = fmt.Errorf("lb: negative uuid matchers are not allowed")
			}
		}
	})
	return dst, visitErr
}

// readPath reports whether p is on the query API's read surface: instant
// and range queries, label names and one label's values. These are the
// only paths a non-admin may reach through the LB, because these are the
// paths whose scope the LB can check — the query expression or the match[]
// selectors name the units a request reads.
func readPath(p string) bool {
	switch p {
	case "/api/v1/query", "/api/v1/query_range", "/api/v1/labels":
		return true
	}
	name, ok := strings.CutPrefix(p, "/api/v1/label/")
	if !ok {
		return false
	}
	name, ok = strings.CutSuffix(name, "/values")
	return ok && name != "" && !strings.Contains(name, "/")
}

// ServeHTTP authorizes and proxies one query request.
func (lb *LB) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if lb.Metrics != nil && r.URL.Path == "/metrics" {
		// Self-telemetry scrape surface: exact path only, and — like any
		// exporter's /metrics — ahead of the user header requirement so a
		// plain scrape loop can reach it.
		lb.Metrics.ServeHTTP(w, r)
		return
	}
	if lb.QueryTimeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), lb.QueryTimeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	user := r.Header.Get("X-Grafana-User")
	if user == "" {
		http.Error(w, "missing X-Grafana-User header", http.StatusUnauthorized)
		return
	}
	if lb.Checker != nil && !lb.Checker.IsAdmin(r.Context(), user) {
		// Anything off the read surface — remote read and write, the status
		// pages with other tenants' query text or the result cache's
		// counters — carries no query the LB could check, so it is the
		// admins' alone.
		if !readPath(r.URL.Path) {
			lb.denied.Add(1)
			http.Error(w, r.URL.Path+" is admin-only", http.StatusForbidden)
			return
		}
		params := r.URL.Query()
		if query := params.Get("query"); query != "" && !lb.authorize(w, r, user, query) {
			return
		}
		// The labels/label-values endpoints scope their answer with match[]
		// selectors instead of a query expression; those selectors carry the
		// same uuid matchers and must pass the same ownership check.
		for _, sel := range params["match[]"] {
			if !lb.authorize(w, r, user, sel) {
				return
			}
		}
	}
	backend := lb.pick()
	if backend == nil {
		http.Error(w, "no healthy backends", http.StatusBadGateway)
		return
	}
	lb.proxy(w, r, backend)
}

// authorize checks that the user owns every uuid the query names; it
// writes the error response and returns false on denial. It runs once per
// expression of a non-admin request, so it collects the uuids in a stack
// buffer, sorts them there and skips repeats: a query naming a handful of
// units costs the checker calls and no allocation.
func (lb *LB) authorize(w http.ResponseWriter, r *http.Request, user, query string) bool {
	var buf [8]string
	uuids, err := appendUUIDs(buf[:0], query)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	slices.Sort(uuids)
	for i, uuid := range uuids {
		if i > 0 && uuid == uuids[i-1] {
			continue
		}
		owns, err := lb.Checker.Owns(r.Context(), user, uuid)
		if err != nil {
			http.Error(w, "ownership check failed", http.StatusBadGateway)
			return false
		}
		if !owns {
			lb.denied.Add(1)
			http.Error(w, fmt.Sprintf("user %s does not own unit %s", user, uuid), http.StatusForbidden)
			return false
		}
	}
	return true
}

// Failovers returns how many requests succeeded only after failing over
// to another backend.
func (lb *LB) Failovers() int64 { return lb.failovers.Load() }

// roundTrip issues the request against one backend, counting it served
// and in flight there; on success it stays in flight until the caller has
// relayed the response and lowers b.active. A transport error marks the backend
// unhealthy unless the request's own context ended first — its deadline or
// a client that hung up is no fault of the backend's. No response byte has
// been written on error, so the caller may retry elsewhere.
func (lb *LB) roundTrip(r *http.Request, b *Backend) (*http.Response, error) {
	out := r.Clone(r.Context())
	out.URL.Scheme = b.URL.Scheme
	out.URL.Host = b.URL.Host
	out.URL.Path = singleJoin(b.URL.Path, r.URL.Path)
	out.RequestURI = ""
	out.Host = ""

	transport := lb.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	b.served.Add(1)
	b.active.Add(1)
	resp, err := transport.RoundTrip(out)
	if err != nil {
		b.active.Add(-1)
		if r.Context().Err() == nil {
			b.SetHealthy(false)
		}
		return nil, err
	}
	return resp, nil
}

// pickExcluding selects a healthy backend not yet tried; nil when none
// remain.
func (lb *LB) pickExcluding(tried map[*Backend]bool) *Backend {
	for range lb.Backends {
		b := lb.pick()
		if b == nil {
			return nil
		}
		if !tried[b] {
			return b
		}
	}
	return nil
}

// proxy forwards the request to the backend and streams the response.
// When the backend fails before a single response byte (transport error),
// safe requests fail over to up to ProxyRetries other healthy backends
// before giving up with a 502 — the HTTP face of the quorum read path: one
// dead replica node must not surface as a query error. A request whose own
// context ended neither fails over nor counts as a proxy error: it is
// answered 504, which a client that hung up never reads.
func (lb *LB) proxy(w http.ResponseWriter, r *http.Request, b *Backend) {
	lb.proxied.Add(1)
	resp, err := lb.roundTrip(r, b)
	if err != nil && lb.ProxyRetries > 0 && (r.Method == http.MethodGet || r.Method == http.MethodHead) {
		tried := map[*Backend]bool{b: true}
		for i := 0; i < lb.ProxyRetries && err != nil && r.Context().Err() == nil; i++ {
			nb := lb.pickExcluding(tried)
			if nb == nil {
				break
			}
			tried[nb] = true
			if resp, err = lb.roundTrip(r, nb); err == nil {
				b = nb
				lb.failovers.Add(1)
			}
		}
	}
	if err != nil {
		if ctxErr := r.Context().Err(); ctxErr != nil {
			http.Error(w, "query ended before a backend answered: "+ctxErr.Error(), http.StatusGatewayTimeout)
			return
		}
		lb.proxyErrors.Add(1)
		http.Error(w, "backend error: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer b.active.Add(-1)
	defer resp.Body.Close()
	for k, vals := range resp.Header {
		for _, v := range vals {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body) // past the status line, a relay error cannot change the answer
}

func singleJoin(a, b string) string {
	switch {
	case strings.HasSuffix(a, "/") && strings.HasPrefix(b, "/"):
		return a + b[1:]
	case !strings.HasSuffix(a, "/") && !strings.HasPrefix(b, "/") && a != "":
		return a + "/" + b
	}
	return a + b
}

// HealthCheck probes every backend's /-/healthy endpoint once, all at
// once and under ctx, updating flags: a backend that has not answered when
// ctx ends is marked down, and cannot hold up the others' verdicts.
// Production deployments run it on a ticker, each pass bounded by the
// interval.
func (lb *LB) HealthCheck(ctx context.Context) {
	client := &http.Client{Transport: lb.Transport}
	var wg sync.WaitGroup
	for _, b := range lb.Backends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.SetHealthy(probe(ctx, client, b.URL.String()+"/-/healthy"))
		}()
	}
	wg.Wait()
}

// probe reports whether a GET of u answers 200 before ctx ends.
func probe(ctx context.Context, client *http.Client, u string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
