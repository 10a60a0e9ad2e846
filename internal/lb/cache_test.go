package lb

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/querycache"
)

// newCachedLB is newTestLB plus a response cache on a controllable clock.
func newCachedLB(t *testing.T, nBackends int) (*LB, *[]int, *time.Time) {
	t.Helper()
	lb, _, counts := newTestLB(t, RoundRobin, nBackends)
	now := time.Unix(10_000, 0)
	clock := func() time.Time { return now }
	lb.Cache = querycache.New(querycache.Options{MaxBytes: 1 << 20, Clock: clock})
	lb.CacheTTL = 15 * time.Second
	return lb, counts, &now
}

func TestLBResponseCacheServesRepeats(t *testing.T) {
	lb, counts, _ := newCachedLB(t, 1)
	const path = `/api/v1/query?query=m{uuid="a1"}`

	rec1 := get(t, lb, path, "alice")
	if rec1.Code != 200 || rec1.Header().Get("X-Querycache") != "miss" {
		t.Fatalf("first = %d, X-Querycache %q", rec1.Code, rec1.Header().Get("X-Querycache"))
	}
	rec2 := get(t, lb, path, "alice")
	if rec2.Code != 200 || rec2.Header().Get("X-Querycache") != "hit" {
		t.Fatalf("repeat = %d, X-Querycache %q", rec2.Code, rec2.Header().Get("X-Querycache"))
	}
	if rec1.Body.String() != rec2.Body.String() {
		t.Fatal("cached body differs from proxied body")
	}
	if (*counts)[0] != 1 {
		t.Fatalf("backend served %d requests, want 1", (*counts)[0])
	}
	// Formatting variants of the same query share the entry.
	rec3 := get(t, lb, `/api/v1/query?query=m%7Buuid%3D%22a1%22%20%7D`, "alice")
	if rec3.Header().Get("X-Querycache") != "hit" {
		t.Fatalf("normalized variant = %q, want hit", rec3.Header().Get("X-Querycache"))
	}
}

func TestLBCacheAfterAccessControl(t *testing.T) {
	lb, counts, _ := newCachedLB(t, 1)
	const path = `/api/v1/query?query=m{uuid="a1"}`

	// alice (owner) fills the cache.
	if rec := get(t, lb, path, "alice"); rec.Code != 200 {
		t.Fatalf("owner = %d", rec.Code)
	}
	// bob does not own a1: denied even though the payload is cached.
	if rec := get(t, lb, path, "bob"); rec.Code != 403 {
		t.Fatalf("non-owner with warm cache = %d, want 403", rec.Code)
	}
	// Another authorized user may share the entry — the payload is keyed by
	// the query, not the requester.
	if rec := get(t, lb, path, "anna"); rec.Code != 200 || rec.Header().Get("X-Querycache") != "hit" {
		t.Fatalf("second owner = %d, %q", rec.Code, rec.Header().Get("X-Querycache"))
	}
	if (*counts)[0] != 1 {
		t.Fatalf("backend served %d, want 1", (*counts)[0])
	}
	// A denial is never cached.
	if rec := get(t, lb, path, "bob"); rec.Code != 403 {
		t.Fatalf("repeat non-owner = %d, want 403", rec.Code)
	}
}

func TestLBCacheTTLExpiry(t *testing.T) {
	lb, counts, now := newCachedLB(t, 1)
	const path = `/api/v1/query?query=up`

	get(t, lb, path, "alice")
	get(t, lb, path, "alice")
	if (*counts)[0] != 1 {
		t.Fatalf("backend served %d, want 1 before expiry", (*counts)[0])
	}
	*now = now.Add(16 * time.Second) // past CacheTTL
	if rec := get(t, lb, path, "alice"); rec.Header().Get("X-Querycache") != "miss" {
		t.Fatalf("post-expiry = %q, want miss", rec.Header().Get("X-Querycache"))
	}
	if (*counts)[0] != 2 {
		t.Fatalf("backend served %d, want 2 after expiry", (*counts)[0])
	}
}

func TestLBCachesNonPromQLPayloads(t *testing.T) {
	lb, counts, _ := newCachedLB(t, 1)
	get(t, lb, "/api/v1/labels", "alice")
	if rec := get(t, lb, "/api/v1/labels", "alice"); rec.Header().Get("X-Querycache") != "hit" {
		t.Fatalf("labels repeat = %q, want hit", rec.Header().Get("X-Querycache"))
	}
	get(t, lb, "/api/v1/label/instance/values", "alice")
	if rec := get(t, lb, "/api/v1/label/instance/values", "alice"); rec.Header().Get("X-Querycache") != "hit" {
		t.Fatalf("label values repeat = %q, want hit", rec.Header().Get("X-Querycache"))
	}
	if (*counts)[0] != 2 {
		t.Fatalf("backend served %d, want 2", (*counts)[0])
	}
	// Paths outside the query API stream through uncached (only admins
	// reach them).
	get(t, lb, "/api/v1/units", "root")
	get(t, lb, "/api/v1/units", "root")
	if (*counts)[0] != 4 {
		t.Fatalf("backend served %d, want 4 (non-query paths uncached)", (*counts)[0])
	}
}

func TestLBNeverCachesTruncatedBody(t *testing.T) {
	var hits atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		// Promise 100 bytes, deliver 10, die: the client side sees an
		// unexpected EOF mid-body.
		w.Header().Set("Content-Length", "100")
		w.Write([]byte("0123456789"))
	}))
	defer backend.Close()
	b, err := NewBackend(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	lb := &LB{
		Backends: []*Backend{b},
		Checker:  &stubChecker{},
		Cache:    querycache.New(querycache.Options{MaxBytes: 1 << 20}),
	}
	get(t, lb, `/api/v1/query?query=up`, "alice")
	if rec := get(t, lb, `/api/v1/query?query=up`, "alice"); rec.Header().Get("X-Querycache") == "hit" {
		t.Fatal("truncated response served from cache")
	}
	if hits.Load() != 2 {
		t.Fatalf("backend hits = %d, want 2 (truncated body must not be cached)", hits.Load())
	}
}

// TestLBCacheOwnsCapturedBody: the buffer the tee filled is the cache's
// entry (PutBlob takes ownership, the LB never copies it again), so a body
// that arrived in several writes must come back whole on a hit, later
// requests must not disturb it, and the entry is charged at least its
// length. A body over the capture limit streams through uncached.
func TestLBCacheOwnsCapturedBody(t *testing.T) {
	chunk := func(c byte, n int) []byte { return bytes.Repeat([]byte{c}, n) }
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("query") {
		case "huge":
			for i := 0; i < 5; i++ {
				w.Write(chunk('h', 1<<20))
			}
		default:
			for _, c := range []byte(r.URL.Query().Get("query")) {
				w.Write(chunk(c, 3000))
				w.(http.Flusher).Flush()
			}
		}
	}))
	defer backend.Close()
	b, err := NewBackend(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	lb := &LB{
		Backends: []*Backend{b},
		Checker:  &stubChecker{},
		Cache:    querycache.New(querycache.Options{MaxBytes: 16 << 20, Shards: 1}),
	}
	wantA := append(append(chunk('a', 3000), chunk('b', 3000)...), chunk('c', 3000)...)
	if rec := get(t, lb, "/api/v1/query?query=abc", "alice"); !bytes.Equal(rec.Body.Bytes(), wantA) {
		t.Fatalf("proxied body: %d bytes, want %d", rec.Body.Len(), len(wantA))
	}
	if st := lb.Cache.Stats(); st.Entries != 1 || st.Bytes < int64(len(wantA)) {
		t.Fatalf("after one fill: %d entries, %d bytes, want 1 entry of >= %d", st.Entries, st.Bytes, len(wantA))
	}
	get(t, lb, "/api/v1/query?query=xyz", "alice") // a second capture must not touch the first entry
	for _, c := range []struct {
		query string
		want  []byte
	}{{"abc", wantA}, {"xyz", append(append(chunk('x', 3000), chunk('y', 3000)...), chunk('z', 3000)...)}} {
		rec := get(t, lb, "/api/v1/query?query="+c.query, "alice")
		if rec.Header().Get("X-Querycache") != "hit" || !bytes.Equal(rec.Body.Bytes(), c.want) {
			t.Fatalf("%s repeat: X-Querycache %q, body intact %v", c.query, rec.Header().Get("X-Querycache"), bytes.Equal(rec.Body.Bytes(), c.want))
		}
	}
	if rec := get(t, lb, "/api/v1/query?query=huge", "alice"); rec.Body.Len() != 5<<20 {
		t.Fatalf("oversized body relayed %d bytes, want %d", rec.Body.Len(), 5<<20)
	}
	if rec := get(t, lb, "/api/v1/query?query=huge", "alice"); rec.Header().Get("X-Querycache") != "miss" {
		t.Fatalf("oversized repeat = %q, want miss", rec.Header().Get("X-Querycache"))
	}
}

func TestLBCacheStatusEndpoint(t *testing.T) {
	lb, _, _ := newCachedLB(t, 1)
	get(t, lb, `/api/v1/query?query=up`, "alice")
	get(t, lb, `/api/v1/query?query=up`, "alice")
	// The status endpoint is an admin surface: anonymous and non-admin
	// requests are rejected before any counters leak.
	if rec := get(t, lb, "/api/v1/status/querycache", ""); rec.Code != 401 {
		t.Fatalf("anonymous status = %d, want 401", rec.Code)
	}
	if rec := get(t, lb, "/api/v1/status/querycache", "alice"); rec.Code != 403 {
		t.Fatalf("non-admin status = %d, want 403", rec.Code)
	}
	rec := get(t, lb, "/api/v1/status/querycache", "root")
	if rec.Code != 200 {
		t.Fatalf("admin status endpoint = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{`"enabled":true`, `"hits":1`} {
		if !contains(body, want) {
			t.Fatalf("status body missing %q: %s", want, body)
		}
	}
}

// TestLBLabelsMatchersAuthorized: the labels/label-values endpoints carry
// their scoping in match[] selectors, not a query expression; those must
// pass the same ownership check — especially now that their responses are
// cached and shared across users.
func TestLBLabelsMatchersAuthorized(t *testing.T) {
	lb, counts, _ := newCachedLB(t, 1)

	// Foreign uuid in a match[] selector: denied, nothing cached.
	if rec := get(t, lb, `/api/v1/labels?match%5B%5D=m%7Buuid%3D%22b7%22%7D`, "alice"); rec.Code != 403 {
		t.Fatalf("foreign match[] = %d, want 403", rec.Code)
	}
	if (*counts)[0] != 0 {
		t.Fatalf("backend served %d denied requests", (*counts)[0])
	}
	// Owned uuid: allowed and cached.
	owned := `/api/v1/label/instance/values?match%5B%5D=m%7Buuid%3D%22a1%22%7D`
	if rec := get(t, lb, owned, "alice"); rec.Code != 200 {
		t.Fatalf("owned match[] = %d", rec.Code)
	}
	// A non-owner repeat of the identical request must be denied, never
	// served from the warm cache.
	if rec := get(t, lb, owned, "bob"); rec.Code != 403 {
		t.Fatalf("non-owner with warm label cache = %d, want 403", rec.Code)
	}
	// Unenumerable match[] regexps fail closed like query expressions.
	if rec := get(t, lb, `/api/v1/labels?match%5B%5D=m%7Buuid%3D~%22a.%2A%22%7D`, "alice"); rec.Code != 400 {
		t.Fatalf("wildcard match[] = %d, want 400", rec.Code)
	}
	if (*counts)[0] != 1 {
		t.Fatalf("backend served %d, want 1 (only the authorized request)", (*counts)[0])
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestLBConcurrentDistinctKeysDoNotSerialize is the regression test for the
// old single-cache-mutex design: two concurrent queries on different cache
// keys must both be in flight at the backend at the same moment. The
// backend holds each request until it has seen both, so the test deadlocks
// (and fails on the watchdog) iff the LB serializes them; nothing here
// depends on timing when the LB is concurrent.
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
	lb := &LB{
		Backends: []*Backend{b},
		Checker:  &stubChecker{},
		Cache:    querycache.New(querycache.Options{MaxBytes: 1 << 20}),
	}
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		i := i
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
		t.Fatalf("peak concurrency at backend = %d, want %d: distinct cache keys serialized", peak.Load(), parallel)
	}
}
