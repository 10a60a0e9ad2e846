// Package emissions implements the emission-factor providers CEEMS uses to
// convert energy into CO2-equivalent emissions (paper §II.A.c): static
// country-level factors from OWID, real-time factors from RTE's éCO2mix
// (France) and from the Electricity Maps API. The real services are
// replaced by mock HTTP servers that produce realistic diurnal signals; the
// clients poll and cache exactly as they would against the real endpoints.
package emissions

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/config"
)

// Factor is one emission factor sample.
type Factor struct {
	// GramsPerKWh is the emission factor in gCO2e per kWh.
	GramsPerKWh float64
	// Source names the provider that produced the factor.
	Source string
	// At is when the factor was valid.
	At time.Time
}

// Grams converts an energy amount in joules to grams CO2e under the factor.
func (f Factor) Grams(joules float64) float64 {
	return joules / 3.6e6 * f.GramsPerKWh
}

// Provider supplies emission factors for a zone (ISO country code).
type Provider interface {
	// Name identifies the provider ("owid", "rte", "emaps").
	Name() string
	// Factor returns the current factor for the zone.
	Factor(ctx context.Context, zone string) (Factor, error)
}

// owidFactors holds static country-average emission factors (gCO2e/kWh),
// from OWID's electricity carbon-intensity data (2023 values).
var owidFactors = map[string]float64{
	"FR": 56, "SE": 41, "NO": 30, "CH": 34,
	"DE": 381, "PL": 662, "US": 369, "GB": 238,
	"CN": 582, "IN": 713, "JP": 485, "AU": 549,
	"CA": 128, "ES": 174, "IT": 331, "NL": 268,
	"WORLD": 481,
}

// OWID is the static-factor provider.
type OWID struct{}

// Name implements Provider.
func (OWID) Name() string { return "owid" }

// Factor returns the static country factor, falling back to the world
// average for unknown zones.
func (OWID) Factor(_ context.Context, zone string) (Factor, error) {
	v, ok := owidFactors[zone]
	if !ok {
		v = owidFactors["WORLD"]
	}
	return Factor{GramsPerKWh: v, Source: "owid", At: time.Time{}}, nil
}

// Zones lists the zones with dedicated static factors.
func (OWID) Zones() []string {
	out := make([]string, 0, len(owidFactors))
	for z := range owidFactors {
		out = append(out, z)
	}
	return out
}

// RTE is the client for the (mock) RTE éCO2mix real-time factor for France.
type RTE struct {
	// URL of the eco2mix endpoint.
	URL    string
	Client *http.Client
}

// Name implements Provider.
func (*RTE) Name() string { return "rte" }

// rteResponse mirrors the éCO2mix JSON payload shape.
type rteResponse struct {
	TauxCO2 float64 `json:"taux_co2"` // gCO2e/kWh
	Date    string  `json:"date"`
}

// Factor fetches the current French factor; RTE serves France only.
func (r *RTE) Factor(ctx context.Context, zone string) (Factor, error) {
	if zone != "FR" {
		return Factor{}, fmt.Errorf("emissions: rte only serves zone FR, not %q", zone)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.URL, nil)
	if err != nil {
		return Factor{}, err
	}
	client := r.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return Factor{}, fmt.Errorf("emissions: rte: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Factor{}, fmt.Errorf("emissions: rte returned %s", resp.Status)
	}
	var body rteResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return Factor{}, fmt.Errorf("emissions: rte decode: %w", err)
	}
	at, _ := time.Parse(time.RFC3339, body.Date)
	return Factor{GramsPerKWh: body.TauxCO2, Source: "rte", At: at}, nil
}

// EMaps is the client for the (mock) Electricity Maps API, which requires
// an auth token, as the real free tier does.
type EMaps struct {
	BaseURL string
	Token   string
	Client  *http.Client
}

// Name implements Provider.
func (*EMaps) Name() string { return "emaps" }

type emapsResponse struct {
	Zone            string  `json:"zone"`
	CarbonIntensity float64 `json:"carbonIntensity"`
	Datetime        string  `json:"datetime"`
}

// Factor fetches the zone's current carbon intensity.
func (e *EMaps) Factor(ctx context.Context, zone string) (Factor, error) {
	url := fmt.Sprintf("%s/v3/carbon-intensity/latest?zone=%s", e.BaseURL, zone)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return Factor{}, err
	}
	req.Header.Set("auth-token", e.Token)
	client := e.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return Factor{}, fmt.Errorf("emissions: emaps: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Factor{}, fmt.Errorf("emissions: emaps returned %s", resp.Status)
	}
	var body emapsResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return Factor{}, fmt.Errorf("emissions: emaps decode: %w", err)
	}
	at, _ := time.Parse(time.RFC3339, body.Datetime)
	return Factor{GramsPerKWh: body.CarbonIntensity, Source: "emaps", At: at}, nil
}

// cacheTTL is how long Cached reuses a fetched factor.
const cacheTTL = 5 * time.Minute

// Cached wraps a provider with a cacheTTL cache, the polling discipline
// CEEMS applies so dashboards do not hammer the factor APIs.
type Cached struct {
	Provider Provider
	// Now overrides the clock (for simulations); nil means time.Now.
	Now func() time.Time

	mu    sync.Mutex
	cache map[string]cachedEntry
}

type cachedEntry struct {
	f   Factor
	exp time.Time
}

// Name implements Provider.
func (c *Cached) Name() string { return c.Provider.Name() }

// Factor serves from cache within cacheTTL, otherwise refreshes.
func (c *Cached) Factor(ctx context.Context, zone string) (Factor, error) {
	now := time.Now()
	if c.Now != nil {
		now = c.Now()
	}
	c.mu.Lock()
	if e, ok := c.cache[zone]; ok && now.Before(e.exp) {
		c.mu.Unlock()
		return e.f, nil
	}
	c.mu.Unlock()
	f, err := c.Provider.Factor(ctx, zone)
	if err != nil {
		return Factor{}, err
	}
	c.mu.Lock()
	if c.cache == nil {
		c.cache = map[string]cachedEntry{}
	}
	c.cache[zone] = cachedEntry{f: f, exp: now.Add(cacheTTL)}
	c.mu.Unlock()
	return f, nil
}

// Chain tries providers in order, returning the first success — CEEMS's
// "real-time when available, static otherwise" policy.
type Chain struct {
	Providers []Provider
}

// Name implements Provider.
func (c *Chain) Name() string { return "chain" }

// Factor returns the first provider's successful answer.
func (c *Chain) Factor(ctx context.Context, zone string) (Factor, error) {
	var lastErr error
	for _, p := range c.Providers {
		f, err := p.Factor(ctx, zone)
		if err == nil {
			return f, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("emissions: empty provider chain")
	}
	return Factor{}, lastErr
}

// FromConfig builds the configured provider chain: the listed providers in
// order, each behind its own cache on the given clock (nil = time.Now).
func FromConfig(c config.EmissionsConfig, now func() time.Time) (Provider, error) {
	chain := &Chain{}
	for _, name := range c.Providers {
		var p Provider
		switch name {
		case "rte":
			p = &RTE{URL: c.RTEURL}
		case "emaps":
			p = &EMaps{BaseURL: c.EMapsURL, Token: c.EMapsToken}
		case "owid":
			p = OWID{}
		default:
			return nil, fmt.Errorf("emissions: unknown provider %q", name)
		}
		chain.Providers = append(chain.Providers, &Cached{Provider: p, Now: now})
	}
	return chain, nil
}

// DiurnalFactor models a realistic real-time factor signal: a base value
// modulated by a daily cycle (solar displaces carbon mid-day) plus slow
// noise. Both mock servers use it.
func DiurnalFactor(base float64, at time.Time) float64 {
	hour := float64(at.Hour()) + float64(at.Minute())/60
	// Trough at 13:00 (max solar), peak near 19:00 (evening ramp).
	solar := -0.25 * math.Cos((hour-13)/24*2*math.Pi)
	evening := 0.15 * math.Exp(-((hour-19)*(hour-19))/8)
	wobble := 0.05 * math.Sin(float64(at.Unix()/600))
	return base * (1 + solar + evening + wobble)
}

// MockRTEHandler serves the éCO2mix payload shape with a diurnal factor
// around the French nuclear-heavy base. Pass a clock for simulated time.
func MockRTEHandler(now func() time.Time) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		t := now()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rteResponse{
			TauxCO2: DiurnalFactor(56, t),
			Date:    t.Format(time.RFC3339),
		})
	})
}

// MockEMapsHandler serves Electricity-Maps-shaped responses for any known
// zone, enforcing token auth like the real API.
func MockEMapsHandler(token string, now func() time.Time) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("auth-token") != token {
			http.Error(w, `{"error":"invalid token"}`, http.StatusUnauthorized)
			return
		}
		zone := r.URL.Query().Get("zone")
		base, ok := owidFactors[zone]
		if !ok {
			http.Error(w, `{"error":"unknown zone"}`, http.StatusNotFound)
			return
		}
		t := now()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(emapsResponse{
			Zone:            zone,
			CarbonIntensity: DiurnalFactor(base, t),
			Datetime:        t.Format(time.RFC3339),
		})
	})
}
