package emissions

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
)

var ctx = context.Background()

func TestFactorGrams(t *testing.T) {
	f := Factor{GramsPerKWh: 56}
	// 1 kWh = 3.6e6 J → 56 g.
	if got := f.Grams(3.6e6); math.Abs(got-56) > 1e-9 {
		t.Errorf("Grams(1 kWh) = %v", got)
	}
	if got := f.Grams(0); got != 0 {
		t.Errorf("Grams(0) = %v", got)
	}
}

func TestOWID(t *testing.T) {
	p := OWID{}
	f, err := p.Factor(ctx, "FR")
	if err != nil || f.GramsPerKWh != 56 {
		t.Errorf("FR = %+v, %v", f, err)
	}
	f, _ = p.Factor(ctx, "PL")
	if f.GramsPerKWh != 662 {
		t.Errorf("PL = %+v", f)
	}
	// Unknown zone falls back to world average.
	f, _ = p.Factor(ctx, "XX")
	if f.GramsPerKWh != 481 {
		t.Errorf("fallback = %+v", f)
	}
	if len(p.Zones()) < 10 {
		t.Error("too few zones")
	}
}

func TestRTEMock(t *testing.T) {
	now := time.Date(2026, 6, 1, 13, 0, 0, 0, time.UTC)
	srv := httptest.NewServer(MockRTEHandler(func() time.Time { return now }))
	defer srv.Close()
	p := &RTE{URL: srv.URL}
	f, err := p.Factor(ctx, "FR")
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	if f.Source != "rte" || f.GramsPerKWh <= 0 {
		t.Errorf("factor = %+v", f)
	}
	// Midday factor should be below the base (solar displacement).
	if f.GramsPerKWh >= 56 {
		t.Errorf("midday factor %v should be below base 56", f.GramsPerKWh)
	}
	// Evening factor above midday.
	now = time.Date(2026, 6, 1, 19, 0, 0, 0, time.UTC)
	f2, _ := p.Factor(ctx, "FR")
	if f2.GramsPerKWh <= f.GramsPerKWh {
		t.Errorf("evening %v should exceed midday %v", f2.GramsPerKWh, f.GramsPerKWh)
	}
	// Non-FR zone rejected.
	if _, err := p.Factor(ctx, "DE"); err == nil {
		t.Error("rte should reject non-FR zones")
	}
}

func TestEMapsMock(t *testing.T) {
	now := func() time.Time { return time.Date(2026, 6, 1, 12, 0, 0, 0, time.UTC) }
	srv := httptest.NewServer(MockEMapsHandler("tok123", now))
	defer srv.Close()

	p := &EMaps{BaseURL: srv.URL, Token: "tok123"}
	f, err := p.Factor(ctx, "DE")
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	if f.Source != "emaps" || f.GramsPerKWh <= 0 {
		t.Errorf("factor = %+v", f)
	}
	// Bad token.
	bad := &EMaps{BaseURL: srv.URL, Token: "wrong"}
	if _, err := bad.Factor(ctx, "DE"); err == nil {
		t.Error("bad token accepted")
	}
	// Unknown zone.
	if _, err := p.Factor(ctx, "ZZ"); err == nil {
		t.Error("unknown zone accepted")
	}
}

type countingProvider struct {
	calls atomic.Int64
	fail  bool
}

func (c *countingProvider) Name() string { return "counting" }
func (c *countingProvider) Factor(context.Context, string) (Factor, error) {
	c.calls.Add(1)
	if c.fail {
		return Factor{}, errors.New("boom")
	}
	return Factor{GramsPerKWh: 100, Source: "counting"}, nil
}

func TestCachedTTL(t *testing.T) {
	inner := &countingProvider{}
	clock := time.Unix(0, 0)
	c := &Cached{Provider: inner, Now: func() time.Time { return clock }}
	for i := 0; i < 5; i++ {
		if _, err := c.Factor(ctx, "FR"); err != nil {
			t.Fatal(err)
		}
	}
	if inner.calls.Load() != 1 {
		t.Errorf("calls = %d, want 1 (cached)", inner.calls.Load())
	}
	clock = clock.Add(cacheTTL - time.Second)
	c.Factor(ctx, "FR")
	if inner.calls.Load() != 1 {
		t.Errorf("calls inside the TTL = %d, want 1", inner.calls.Load())
	}
	clock = clock.Add(time.Second)
	c.Factor(ctx, "FR")
	if inner.calls.Load() != 2 {
		t.Errorf("calls after expiry = %d, want 2", inner.calls.Load())
	}
	// Different zone is a separate entry.
	c.Factor(ctx, "DE")
	if inner.calls.Load() != 3 {
		t.Errorf("calls for new zone = %d", inner.calls.Load())
	}
}

func TestChainFallback(t *testing.T) {
	failing := &countingProvider{fail: true}
	ok := &countingProvider{}
	chain := &Chain{Providers: []Provider{failing, ok}}
	f, err := chain.Factor(ctx, "FR")
	if err != nil || f.Source != "counting" {
		t.Errorf("chain = %+v, %v", f, err)
	}
	if failing.calls.Load() != 1 || ok.calls.Load() != 1 {
		t.Error("chain call pattern wrong")
	}
	// All failing.
	chain2 := &Chain{Providers: []Provider{failing}}
	if _, err := chain2.Factor(ctx, "FR"); err == nil {
		t.Error("all-failing chain succeeded")
	}
	// Empty chain.
	if _, err := (&Chain{}).Factor(ctx, "FR"); err == nil {
		t.Error("empty chain succeeded")
	}
}

func TestDiurnalShape(t *testing.T) {
	base := 100.0
	day := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	var mn, mx = math.Inf(1), math.Inf(-1)
	for h := 0; h < 24; h++ {
		v := DiurnalFactor(base, day.Add(time.Duration(h)*time.Hour))
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		if v <= 0 {
			t.Errorf("factor at %dh = %v", h, v)
		}
	}
	// Meaningful daily swing, but bounded.
	if (mx-mn)/base < 0.2 || (mx-mn)/base > 0.8 {
		t.Errorf("daily swing = %v..%v", mn, mx)
	}
}

// The paper's motivating comparison: the same 1 MWh workload produces very
// different reported emissions under French vs Polish grids, and real-time
// vs static factors differ within a day.
func TestStaticVsRealTimeDivergence(t *testing.T) {
	joules := 3.6e9 // 1 MWh
	owid := OWID{}
	fFR, _ := owid.Factor(ctx, "FR")
	fPL, _ := owid.Factor(ctx, "PL")
	if fPL.Grams(joules)/fFR.Grams(joules) < 5 {
		t.Error("PL/FR emission ratio should be large")
	}
	// Real-time: midday vs evening France.
	mid := Factor{GramsPerKWh: DiurnalFactor(56, time.Date(2026, 6, 1, 13, 0, 0, 0, time.UTC))}
	eve := Factor{GramsPerKWh: DiurnalFactor(56, time.Date(2026, 6, 1, 19, 0, 0, 0, time.UTC))}
	if eve.Grams(joules) <= mid.Grams(joules) {
		t.Error("evening emissions should exceed midday")
	}
}

// TestFromConfig: the configured chain tries the listed providers in the
// listed order, each behind the cache TTL on the given clock, and an
// unknown name is an error at construction, not at the first lookup.
func TestFromConfig(t *testing.T) {
	now := time.Date(2026, 6, 1, 13, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	var hits atomic.Int64
	mock := MockRTEHandler(clock)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		mock.ServeHTTP(w, r)
	}))
	defer srv.Close()

	p, err := FromConfig(config.EmissionsConfig{
		Providers: []string{"rte", "owid"}, RTEURL: srv.URL,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	if f, err := p.Factor(ctx, "FR"); err != nil || f.Source != "rte" {
		t.Errorf("FR = %+v, %v; want the first provider, rte", f, err)
	}
	if f, err := p.Factor(ctx, "DE"); err != nil || f.Source != "owid" {
		t.Errorf("DE = %+v, %v; want the fallback, owid (rte serves FR only)", f, err)
	}
	now = now.Add(cacheTTL - time.Second)
	p.Factor(ctx, "FR")
	if hits.Load() != 1 {
		t.Errorf("%d fetches inside the TTL, want 1", hits.Load())
	}
	now = now.Add(2 * time.Second)
	p.Factor(ctx, "FR")
	if hits.Load() != 2 {
		t.Errorf("%d fetches after the TTL ran out on the given clock, want 2", hits.Load())
	}

	def, err := FromConfig(config.Default().Emissions, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f, err := def.Factor(ctx, "FR"); err != nil || f.GramsPerKWh != 56 {
		t.Errorf("default chain FR = %+v, %v; want OWID's static 56", f, err)
	}
	if _, err := FromConfig(config.EmissionsConfig{Providers: []string{"owid", "carrier-pigeon"}}, nil); err == nil {
		t.Error("unknown provider accepted")
	}
}
