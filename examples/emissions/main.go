// Emissions example: the same workload's carbon footprint under static
// OWID factors vs real-time providers (mock RTE and Electricity Maps
// servers), illustrating why CEEMS supports multiple factor sources and
// how the provider chain falls back (paper §II.A.c).
//
//	go run ./examples/emissions
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"repro/internal/emissions"
)

func main() {
	ctx := context.Background()
	const workloadJoules = 500 * 3600 * 24 // a 500 W node-day ≈ 12 kWh

	// Mock real-time providers with a controllable clock.
	clock := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	now := func() time.Time { return clock }
	rteSrv := httptest.NewServer(emissions.MockRTEHandler(now))
	defer rteSrv.Close()
	emapsSrv := httptest.NewServer(emissions.MockEMapsHandler("demo-token", now))
	defer emapsSrv.Close()

	owid := emissions.OWID{}
	rte := &emissions.RTE{URL: rteSrv.URL}
	emaps := &emissions.EMaps{BaseURL: emapsSrv.URL, Token: "demo-token"}

	// 1. Static factors: the zone dominates.
	fmt.Println("static OWID factors — one node-day (12 kWh):")
	for _, zone := range []string{"FR", "SE", "DE", "PL", "US"} {
		f, _ := owid.Factor(ctx, zone)
		fmt.Printf("  %-3s %5.0f g/kWh → %8.0f g CO2e\n", zone, f.GramsPerKWh, f.Grams(workloadJoules))
	}

	// 2. Real-time France through the day: scheduling matters.
	fmt.Println("\nreal-time RTE factor across one day (per-hour emissions of a 500 W node):")
	hourJoules := 500.0 * 3600
	for h := 0; h < 24; h += 3 {
		clock = time.Date(2026, 6, 1, h, 0, 0, 0, time.UTC)
		f, err := rte.Factor(ctx, "FR")
		if err != nil {
			log.Fatal(err)
		}
		bar := ""
		for i := 0.0; i < f.Grams(hourJoules); i += 2 {
			bar += "#"
		}
		fmt.Printf("  %02d:00  %5.1f g/kWh  %6.1f g  %s\n", h, f.GramsPerKWh, f.Grams(hourJoules), bar)
	}

	// 3. Electricity Maps for zones RTE does not serve.
	fmt.Println("\nElectricity Maps (requires API token, as the real free tier):")
	clock = time.Date(2026, 6, 1, 13, 0, 0, 0, time.UTC)
	for _, zone := range []string{"DE", "GB", "JP"} {
		f, err := emaps.Factor(ctx, zone)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-3s %6.1f g/kWh (13:00 local solar trough)\n", zone, f.GramsPerKWh)
	}
	if _, err := (&emissions.EMaps{BaseURL: emapsSrv.URL, Token: "wrong"}).Factor(ctx, "DE"); err != nil {
		fmt.Printf("  bad token rejected as expected: %v\n", err)
	}

	// 4. The provider chain CEEMS deploys: real-time first, static fallback.
	chain := &emissions.Chain{Providers: []emissions.Provider{
		&emissions.Cached{Provider: rte},
		owid,
	}}
	f, _ := chain.Factor(ctx, "FR")
	fmt.Printf("\nchain(FR) → %s at %.1f g/kWh (real-time preferred)\n", f.Source, f.GramsPerKWh)
	f, _ = chain.Factor(ctx, "DE")
	fmt.Printf("chain(DE) → %s at %.1f g/kWh (RTE refuses non-FR, OWID fallback)\n", f.Source, f.GramsPerKWh)
}
