package lb

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/config"
)

// stubChecker owns units by prefix: user "alice" owns uuids starting "a".
type stubChecker struct {
	admins map[string]bool
	calls  int
	mu     sync.Mutex
}

func (s *stubChecker) Owns(_ context.Context, user, uuid string) (bool, error) {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	return len(uuid) > 0 && len(user) > 0 && uuid[0] == user[0], nil
}

func (s *stubChecker) IsAdmin(_ context.Context, user string) bool { return s.admins[user] }

func newTestLB(t *testing.T, strategy Strategy, nBackends int) (*LB, []*httptest.Server, *[]int) {
	t.Helper()
	var servers []*httptest.Server
	counts := make([]int, nBackends)
	var mu sync.Mutex
	lb := &LB{Strategy: strategy, Checker: &stubChecker{admins: map[string]bool{"root": true}}}
	for i := 0; i < nBackends; i++ {
		i := i
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
			w.Write([]byte(`{"status":"success"}`))
		}))
		servers = append(servers, srv)
		b, err := NewBackend(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		lb.Backends = append(lb.Backends, b)
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
	})
	return lb, servers, &counts
}

func get(t *testing.T, lb *LB, path, user string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if user != "" {
		req.Header.Set("X-Grafana-User", user)
	}
	rec := httptest.NewRecorder()
	lb.ServeHTTP(rec, req)
	return rec
}

func TestExtractUUIDs(t *testing.T) {
	cases := []struct {
		q    string
		want []string
	}{
		{`ceems_compute_unit_cpu_usage_seconds_total{uuid="123"}`, []string{"123"}},
		{`rate(metric{uuid="1"}[5m]) + metric2{uuid="2"}`, []string{"1", "2"}},
		{`sum by (uuid) (metric{uuid=~"1|2|3"})`, []string{"1", "2", "3"}},
		{`up`, nil},
		{`topk(3, m{uuid="9"})`, []string{"9"}},
		{`m{uuid=~"b|a|a"}`, []string{"a", "b"}},
	}
	for _, c := range cases {
		got, err := ExtractUUIDs(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if !reflect.DeepEqual(got, c.want) && !(len(got) == 0 && len(c.want) == 0) {
			t.Errorf("ExtractUUIDs(%s) = %v, want %v", c.q, got, c.want)
		}
	}
	// Unenumerable / negative matchers fail closed.
	for _, q := range []string{
		`m{uuid=~"1.*"}`,
		`m{uuid!~"x"}`,
		`m{uuid!="1"}`,
		`m{uuid=~""}`,   // matches series without a uuid
		`m{uuid=~"a|"}`, // so does an empty alternative
	} {
		if _, err := ExtractUUIDs(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
	if _, err := ExtractUUIDs(`not a query{{`); err == nil {
		t.Error("unparseable query accepted")
	}
}

func TestAccessControl(t *testing.T) {
	lb, _, _ := newTestLB(t, RoundRobin, 1)

	// Owner allowed.
	rec := get(t, lb, `/api/v1/query?query=m{uuid="a1"}`, "alice")
	if rec.Code != 200 {
		t.Errorf("owner query = %d: %s", rec.Code, rec.Body)
	}
	// Cross-user denied.
	rec = get(t, lb, `/api/v1/query?query=m{uuid="b7"}`, "alice")
	if rec.Code != 403 {
		t.Errorf("cross-user = %d", rec.Code)
	}
	if lb.Denied() != 1 {
		t.Errorf("denied = %d", lb.Denied())
	}
	// Admin bypass.
	rec = get(t, lb, `/api/v1/query?query=m{uuid="b7"}`, "root")
	if rec.Code != 200 {
		t.Errorf("admin = %d", rec.Code)
	}
	// Missing identity.
	rec = get(t, lb, `/api/v1/query?query=up`, "")
	if rec.Code != 401 {
		t.Errorf("anonymous = %d", rec.Code)
	}
	// Query without uuid matchers passes (node-level dashboards).
	rec = get(t, lb, `/api/v1/query?query=up`, "alice")
	if rec.Code != 200 {
		t.Errorf("uuid-less query = %d", rec.Code)
	}
	// Multi-uuid query with one foreign uuid denied.
	rec = get(t, lb, `/api/v1/query?query=m{uuid=~"a1|b2"}`, "alice")
	if rec.Code != 403 {
		t.Errorf("mixed uuids = %d", rec.Code)
	}
	// Unenumerable regexp rejected as bad request.
	rec = get(t, lb, `/api/v1/query?query=m{uuid=~"a.*"}`, "alice")
	if rec.Code != 400 {
		t.Errorf("wildcard uuid = %d", rec.Code)
	}
}

// TestLBCacheAfterAccessControl: an owner's query is proxied, a non-owner's
// identical query is denied before any backend sees it, and a second owner
// is proxied again. The LB keeps no response cache: two identical instant
// requests both reach the backend, and the LB stamps no X-Querycache of its
// own on either.
func TestLBCacheAfterAccessControl(t *testing.T) {
	lb, _, counts := newTestLB(t, RoundRobin, 1)
	const path = `/api/v1/query?query=m{uuid="a1"}`

	if rec := get(t, lb, path, "alice"); rec.Code != 200 {
		t.Fatalf("owner = %d", rec.Code)
	}
	if rec := get(t, lb, path, "bob"); rec.Code != 403 {
		t.Fatalf("non-owner after the owner's request = %d, want 403", rec.Code)
	}
	rec := get(t, lb, path, "anna")
	if rec.Code != 200 {
		t.Fatalf("second owner = %d", rec.Code)
	}
	if got, ok := rec.Header()["X-Querycache"]; ok {
		t.Fatalf("X-Querycache = %q, want none: the backend sent none", got)
	}
	if (*counts)[0] != 2 {
		t.Fatalf("backend served %d of 2 authorized identical requests", (*counts)[0])
	}
}

// TestLBLabelsMatchersAuthorized: the labels/label-values endpoints carry
// their scoping in match[] selectors, not a query expression; those must
// pass the same ownership check.
func TestLBLabelsMatchersAuthorized(t *testing.T) {
	lb, _, counts := newTestLB(t, RoundRobin, 1)

	// Foreign uuid in a match[] selector: denied before the backend.
	if rec := get(t, lb, `/api/v1/labels?match%5B%5D=m%7Buuid%3D%22b7%22%7D`, "alice"); rec.Code != 403 {
		t.Fatalf("foreign match[] = %d, want 403", rec.Code)
	}
	if (*counts)[0] != 0 {
		t.Fatalf("backend served %d denied requests", (*counts)[0])
	}
	owned := `/api/v1/label/instance/values?match%5B%5D=m%7Buuid%3D%22a1%22%7D`
	if rec := get(t, lb, owned, "alice"); rec.Code != 200 {
		t.Fatalf("owned match[] = %d", rec.Code)
	}
	// A non-owner's repeat of the identical request is denied.
	if rec := get(t, lb, owned, "bob"); rec.Code != 403 {
		t.Fatalf("non-owner after the owner's request = %d, want 403", rec.Code)
	}
	// Unenumerable match[] regexps fail closed like query expressions.
	if rec := get(t, lb, `/api/v1/labels?match%5B%5D=m%7Buuid%3D~%22a.%2A%22%7D`, "alice"); rec.Code != 400 {
		t.Fatalf("wildcard match[] = %d, want 400", rec.Code)
	}
	if (*counts)[0] != 1 {
		t.Fatalf("backend served %d, want 1 (only the authorized request)", (*counts)[0])
	}
}

// TestLBConcurrentDistinctKeysDoNotSerialize: two concurrent queries must
// both be in flight at the backend at the same moment. The backend holds
// each request until it has seen both, so the test deadlocks (and fails on
// the watchdog) iff the LB serializes them; nothing here depends on timing
// when the LB is concurrent.
func TestLBConcurrentDistinctKeysDoNotSerialize(t *testing.T) {
	const parallel = 2
	var inFlight atomic.Int64
	var peak atomic.Int64
	bothArrived := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		if n == parallel {
			close(bothArrived)
		}
		select {
		case <-bothArrived:
		case <-time.After(5 * time.Second):
		}
		w.Write([]byte(`{"status":"success"}`))
	}))
	defer backend.Close()

	b, err := NewBackend(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	lb := &LB{Backends: []*Backend{b}, Checker: &stubChecker{}}
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			paths := []string{`/api/v1/query?query=m{uuid="a1"}`, `/api/v1/query?query=m{uuid="a2"}`}
			rec := get(t, lb, paths[i], "alice")
			if rec.Code != 200 {
				t.Errorf("request %d = %d", i, rec.Code)
			}
		}()
	}
	wg.Wait()
	if peak.Load() != parallel {
		t.Fatalf("peak concurrency at backend = %d, want %d: distinct queries serialized", peak.Load(), parallel)
	}
}

// TestNonAdminReadSurfaceOnly: a non-admin reaches the backend only through
// the query API's read endpoints, whose scope the LB checks. Remote write,
// the status pages and any other path, served or not (/api/v1/read is a
// route no backend has any more), carry no query to check, so they are
// denied — and counted — before any backend sees them; admins still reach
// them.
func TestNonAdminReadSurfaceOnly(t *testing.T) {
	lb, _, counts := newTestLB(t, RoundRobin, 1)
	do := func(method, path, user string) int {
		req := httptest.NewRequest(method, path, nil)
		req.Header.Set("X-Grafana-User", user)
		rec := httptest.NewRecorder()
		lb.ServeHTTP(rec, req)
		return rec.Code
	}
	offSurface := []struct{ method, path string }{
		{http.MethodPost, "/api/v1/read"},
		{http.MethodPost, "/api/v1/write"},
		{http.MethodGet, "/api/v1/status/queries"},
		{http.MethodGet, "/api/v1/status/querycache"},
		{http.MethodGet, "/api/v1/label/a/b/values"},
		{http.MethodGet, "/api/v1/label//values"},
		{http.MethodGet, "/api/v1/query_exemplars"},
	}
	for i, c := range offSurface {
		if code := do(c.method, c.path, "alice"); code != http.StatusForbidden {
			t.Errorf("alice %s %s = %d, want 403", c.method, c.path, code)
		}
		if lb.Denied() != int64(i+1) {
			t.Errorf("after alice %s %s: denied = %d, want %d", c.method, c.path, lb.Denied(), i+1)
		}
	}
	if (*counts)[0] != 0 {
		t.Fatalf("backend saw %d requests off the read surface", (*counts)[0])
	}
	if rec := get(t, lb, "/api/v1/status/querycache", ""); rec.Code != http.StatusUnauthorized {
		t.Errorf("anonymous status page = %d, want 401", rec.Code)
	}
	// Admins reach every path: the backend answers, promapi's result cache
	// status page among them.
	for _, c := range offSurface {
		if code := do(c.method, c.path, "root"); code != http.StatusOK {
			t.Errorf("admin %s %s = %d, want 200", c.method, c.path, code)
		}
	}
	for _, path := range []string{
		`/api/v1/query?query=m{uuid="a1"}`,
		`/api/v1/query_range?query=m{uuid="a1"}&start=0&end=60&step=15`,
		"/api/v1/labels",
		"/api/v1/label/instance/values",
	} {
		if code := do(http.MethodGet, path, "alice"); code != http.StatusOK {
			t.Errorf("alice GET %s = %d, want 200", path, code)
		}
	}
	if want := len(offSurface) + 4; (*counts)[0] != want || lb.Denied() != int64(len(offSurface)) {
		t.Fatalf("backend saw %d, denied %d; want %d and %d", (*counts)[0], lb.Denied(), want, len(offSurface))
	}
}

// TestAuthorizeAllocatesNothing: the per-request ownership check of a
// query naming one unit costs the checker call and no allocation.
func TestAuthorizeAllocatesNothing(t *testing.T) {
	lb := &LB{Checker: &stubChecker{}}
	req := httptest.NewRequest(http.MethodGet, "/api/v1/query", nil)
	const query = `sum by (uuid) (rate(ceems_compute_unit_cpu_usage_seconds_total{uuid="a1"}[5m]))`
	if !lb.authorize(nil, req, "alice", query) { // warms the parse cache
		t.Fatal("owner denied")
	}
	if allocs := testing.AllocsPerRun(100, func() { lb.authorize(nil, req, "alice", query) }); allocs != 0 {
		t.Fatalf("authorize made %v allocations per one-uuid query, want 0", allocs)
	}
}

func TestRoundRobinDistribution(t *testing.T) {
	lb, _, counts := newTestLB(t, RoundRobin, 3)
	for i := 0; i < 30; i++ {
		if rec := get(t, lb, "/api/v1/query?query=up", "alice"); rec.Code != 200 {
			t.Fatalf("status = %d", rec.Code)
		}
	}
	for i, c := range *counts {
		if c != 10 {
			t.Errorf("backend %d served %d, want 10", i, c)
		}
	}
	// Served counters agree.
	for _, b := range lb.Backends {
		if b.Served() != 10 {
			t.Errorf("Served = %d", b.Served())
		}
	}
}

func TestUnhealthySkipped(t *testing.T) {
	lb, _, counts := newTestLB(t, RoundRobin, 2)
	lb.Backends[0].SetHealthy(false)
	for i := 0; i < 6; i++ {
		get(t, lb, "/api/v1/query?query=up", "alice")
	}
	if (*counts)[0] != 0 || (*counts)[1] != 6 {
		t.Errorf("counts = %v", *counts)
	}
	// All unhealthy → 502.
	lb.Backends[1].SetHealthy(false)
	rec := get(t, lb, "/api/v1/query?query=up", "alice")
	if rec.Code != 502 {
		t.Errorf("no-backend status = %d", rec.Code)
	}
}

func TestLeastConnection(t *testing.T) {
	// Backend 0 is slow; least-connection should route new requests to
	// backend 1 while 0 is busy.
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		<-release
		w.Write([]byte("slow"))
	}))
	defer slow.Close()
	var fastCount int
	var mu sync.Mutex
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		fastCount++
		mu.Unlock()
		w.Write([]byte("fast"))
	}))
	defer fast.Close()

	b0, _ := NewBackend(slow.URL)
	b1, _ := NewBackend(fast.URL)
	lb := &LB{Backends: []*Backend{b0, b1}, Strategy: LeastConnection}

	// Occupy the slow backend.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		get(t, lb, "/api/v1/query?query=up", "alice")
	}()
	// Wait until the slow request is in flight.
	deadline := time.Now().Add(2 * time.Second)
	for b0.Active() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if b0.Active() != 1 {
		t.Fatal("slow request never started")
	}
	for i := 0; i < 5; i++ {
		get(t, lb, "/api/v1/query?query=up", "alice")
	}
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if fastCount != 5 {
		t.Errorf("fast backend served %d, want 5", fastCount)
	}
}

func TestHealthCheck(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/-/healthy" {
			w.WriteHeader(200)
			return
		}
		w.WriteHeader(404)
	}))
	defer healthy.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(500)
	}))
	b0, _ := NewBackend(healthy.URL)
	b1, _ := NewBackend(dead.URL)
	dead.Close() // connection refused
	lb := &LB{Backends: []*Backend{b0, b1}}
	lb.HealthCheck(context.Background())
	if !b0.Healthy() {
		t.Error("healthy backend marked down")
	}
	if b1.Healthy() {
		t.Error("dead backend marked up")
	}
}

// TestHealthCheckHungBackend: a backend that accepts the probe and never
// answers is marked down when the caller's context ends, and holds up
// neither the pass nor the healthy backend's verdict.
func TestHealthCheckHungBackend(t *testing.T) {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-release }))
	defer hung.Close()
	defer close(release) // runs before hung.Close, which waits for the handler
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {}))
	defer healthy.Close()
	b0, _ := NewBackend(hung.URL)
	b1, _ := NewBackend(healthy.URL)
	lb := &LB{Backends: []*Backend{b0, b1}}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() {
		lb.HealthCheck(ctx)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("HealthCheck still blocked 5 s after its 100 ms context")
	}
	if b0.Healthy() {
		t.Error("hung backend still marked up")
	}
	if !b1.Healthy() {
		t.Error("healthy backend marked down behind the hung one")
	}
}

func TestHTTPChecker(t *testing.T) {
	api := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		uuid := r.URL.Query().Get("uuid")
		if uuid == "mine" {
			w.WriteHeader(200)
		} else {
			w.WriteHeader(403)
		}
	}))
	defer api.Close()
	c := &HTTPChecker{BaseURL: api.URL}
	owns, err := c.Owns(context.Background(), "u", "mine")
	if err != nil || !owns {
		t.Errorf("Owns(mine) = %v, %v", owns, err)
	}
	owns, err = c.Owns(context.Background(), "u", "other")
	if err != nil || owns {
		t.Errorf("Owns(other) = %v, %v", owns, err)
	}
	if c.IsAdmin(context.Background(), "root") {
		t.Error("HTTP checker should not grant admin locally")
	}
}

// TestHTTPCheckerAdminThroughAPIServer: behind the HTTP checker, the API
// server's admin table decides who reaches the admin-only paths — an admin
// gets a status page through the LB, an ordinary user still gets 403.
func TestHTTPCheckerAdminThroughAPIServer(t *testing.T) {
	cfg := config.Default()
	cfg.APIServer.AdminUsers = []string{"root"}
	role, err := api.Open(cfg, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	apiHTTP := httptest.NewServer(role.Server.Handler())
	defer apiHTTP.Close()
	prom := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"status":"success"}`))
	}))
	defer prom.Close()
	b, _ := NewBackend(prom.URL)
	balancer := &LB{Backends: []*Backend{b}, Checker: &HTTPChecker{BaseURL: apiHTTP.URL}}

	for user, code := range map[string]int{"root": 200, "alice": 403} {
		req := httptest.NewRequest(http.MethodGet, "/api/v1/status/queries", nil)
		req.Header.Set("X-Grafana-User", user)
		rec := httptest.NewRecorder()
		balancer.ServeHTTP(rec, req)
		if rec.Code != code {
			t.Errorf("%s on a status path = %d %s, want %d", user, rec.Code, rec.Body, code)
		}
	}
}

func TestProxyFailover(t *testing.T) {
	// Backend 0 is dead (connection refused) but still marked healthy —
	// the health checker hasn't noticed yet. With a retry budget the GET
	// must fail over to backend 1 transparently.
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"status":"success"}`))
	}))
	defer live.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {}))
	b0, _ := NewBackend(dead.URL)
	b1, _ := NewBackend(live.URL)
	dead.Close()

	lb := &LB{Backends: []*Backend{b0, b1}, Checker: &stubChecker{}, ProxyRetries: 1}
	// pick() round-robins; loop until the dead backend is attempted first.
	var sawFailover bool
	for i := 0; i < 4; i++ {
		rec := get(t, lb, "/api/v1/query?query=up", "alice")
		if rec.Code != 200 {
			t.Fatalf("request %d = %d: %s", i, rec.Code, rec.Body)
		}
		if lb.Failovers() > 0 {
			sawFailover = true
		}
	}
	if !sawFailover {
		t.Error("no failover recorded despite dead backend in rotation")
	}
	if b0.Healthy() {
		t.Error("dead backend still marked healthy after transport error")
	}

	// Unsafe methods never retry: the body was consumed by the attempt.
	b0.SetHealthy(true)
	lb2 := &LB{Backends: []*Backend{b0}, Checker: &stubChecker{}, ProxyRetries: 3}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/query", nil)
	req.Header.Set("X-Grafana-User", "alice")
	rec := httptest.NewRecorder()
	lb2.ServeHTTP(rec, req)
	if rec.Code != 502 {
		t.Errorf("POST to dead backend = %d, want 502", rec.Code)
	}
	if lb2.Failovers() != 0 {
		t.Errorf("POST failed over %d times, want 0", lb2.Failovers())
	}

	// Budget exhausted (every backend dead) still ends in one 502.
	b0.SetHealthy(true)
	lb3 := &LB{Backends: []*Backend{b0}, Checker: &stubChecker{}, ProxyRetries: 2}
	if rec := get(t, lb3, "/api/v1/query?query=up", "alice"); rec.Code != 502 {
		t.Errorf("all-dead status = %d, want 502", rec.Code)
	}
}

// TestLBDeadlineIsNotABackendFault: a query that outlives the LB's
// QueryTimeout is answered 504, and neither fails over nor marks a backend
// down — the next fast query is served at once.
func TestLBDeadlineIsNotABackendFault(t *testing.T) {
	lb := &LB{Checker: &stubChecker{}, QueryTimeout: 50 * time.Millisecond, ProxyRetries: 1}
	var served atomic.Int64
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			served.Add(1)
			if r.URL.Query().Get("query") == "slow" {
				select {
				case <-r.Context().Done():
				case <-time.After(200 * time.Millisecond):
				}
			}
			w.Write([]byte(`{"status":"success"}`))
		}))
		t.Cleanup(srv.Close)
		b, err := NewBackend(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		lb.Backends = append(lb.Backends, b)
	}

	if rec := get(t, lb, "/api/v1/query?query=slow", "alice"); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("slow query = %d %s, want 504", rec.Code, rec.Body)
	}
	for i, b := range lb.Backends {
		if !b.Healthy() {
			t.Errorf("backend %d marked down by the query's own deadline", i)
		}
	}
	if served.Load() != 1 || lb.Failovers() != 0 || lb.proxyErrors.Load() != 0 {
		t.Errorf("backends saw %d, failovers %d, proxy errors %d; want 1, 0, 0",
			served.Load(), lb.Failovers(), lb.proxyErrors.Load())
	}
	if rec := get(t, lb, "/api/v1/query?query=up", "alice"); rec.Code != 200 {
		t.Fatalf("fast query after the deadline = %d %s", rec.Code, rec.Body)
	}
}

// TestLBFailoverCountsActiveOnServingBackend: while a request fails over
// from a dead backend, it is in flight on the backend that serves it, and
// on no other.
func TestLBFailoverCountsActiveOnServingBackend(t *testing.T) {
	arrived, release := make(chan struct{}), make(chan struct{})
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(arrived)
		<-release
		w.Write([]byte(`{"status":"success"}`))
	}))
	defer live.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	bDead, _ := NewBackend(dead.URL)
	bLive, _ := NewBackend(live.URL)
	dead.Close()
	// Least-connection with both idle picks the first backend: the dead one.
	lb := &LB{Backends: []*Backend{bDead, bLive}, Strategy: LeastConnection, Checker: &stubChecker{}, ProxyRetries: 1}

	done := make(chan int)
	go func() { done <- get(t, lb, "/api/v1/query?query=up", "alice").Code }()
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the retry never reached the live backend")
	}
	if bDead.Active() != 0 || bLive.Active() != 1 {
		t.Errorf("during the relay: dead Active() = %d, live Active() = %d; want 0 and 1", bDead.Active(), bLive.Active())
	}
	close(release)
	if code := <-done; code != 200 || lb.Failovers() != 1 {
		t.Fatalf("request = %d after %d failovers, want 200 after 1", code, lb.Failovers())
	}
	if bDead.Active() != 0 || bLive.Active() != 0 {
		t.Errorf("after the relay: Active() = %d and %d, want 0 and 0", bDead.Active(), bLive.Active())
	}
}

func TestBadBackendURL(t *testing.T) {
	if _, err := NewBackend("://bad"); err == nil {
		t.Error("bad URL accepted")
	}
}

// staticTransport answers every proxied request in process with a fixed
// two-byte body, so a benchmark through it times the LB, not a socket.
type staticTransport struct{}

func (staticTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK, Header: http.Header{}, Request: req,
		Body: io.NopCloser(strings.NewReader("ok")), ContentLength: 2,
	}, nil
}

// BenchmarkLBAuthorizedProxy is the LB's own cost per request: identity,
// read-surface and ownership checks, backend pick and relay, against an
// in-process backend. An owner's instant and range panel each name one
// unit; the admin's range panel skips the ownership check.
func BenchmarkLBAuthorizedProxy(b *testing.B) {
	be, _ := NewBackend("http://backend.test")
	lb := &LB{
		Backends:  []*Backend{be},
		Checker:   &stubChecker{admins: map[string]bool{"root": true}},
		Transport: staticTransport{},
	}
	const sel = `rate(ceems_compute_unit_cpu_usage_seconds_total{uuid="a1"}[5m])`
	for _, c := range []struct{ name, user, path string }{
		{"owner_instant", "alice", "/api/v1/query?" + url.Values{"query": {sel}, "time": {"600"}}.Encode()},
		{"owner_range", "alice", "/api/v1/query_range?" + url.Values{"query": {sel}, "start": {"0"}, "end": {"3600"}, "step": {"60"}}.Encode()},
		{"admin_range", "root", "/api/v1/query_range?" + url.Values{"query": {sel}, "start": {"0"}, "end": {"3600"}, "step": {"60"}}.Encode()},
	} {
		b.Run(c.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, c.path, nil)
			req.Header.Set("X-Grafana-User", c.user)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				lb.ServeHTTP(rec, req)
				if rec.Code != 200 {
					b.Fatalf("status %d", rec.Code)
				}
			}
		})
	}
}
