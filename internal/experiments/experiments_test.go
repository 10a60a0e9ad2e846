package experiments

import (
	"context"
	"strings"
	"testing"
)

// shortSkips are the experiments that simulate an hour of platform time
// (1-3 s each); -short leaves them to the full run and keeps the analytic
// and sub-second ones, so `go test -short ./...` stays an inner loop.
var shortSkips = map[string]bool{
	"ablate-agg": true, "ablate-cleanup": true, "fig2a": true, "fig2b": true, "fig2c": true,
}

// Each experiment must run clean and produce a non-trivial report. The
// scale experiment (E7) is exercised separately in -short-excluded mode
// because it builds 1400 nodes.
func TestExperimentsRun(t *testing.T) {
	ctx := context.Background()
	for _, id := range IDs() {
		if id == "scale" {
			continue // covered by TestScaleExperiment
		}
		id := id
		t.Run(id, func(t *testing.T) {
			if testing.Short() && shortSkips[id] {
				t.Skip("simulates an hour of platform time")
			}
			res, err := Registry[id](ctx)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.ID != id {
				t.Errorf("result ID = %q", res.ID)
			}
			if len(res.Text) < 100 {
				t.Errorf("report too short:\n%s", res.Text)
			}
			if !strings.Contains(res.Text, "\t") && !strings.Contains(res.Text, "  ") {
				t.Errorf("report has no table content")
			}
		})
	}
}

func TestEq1Invariants(t *testing.T) {
	res, err := RunEq1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The OS baseline (0.4% of CPUs) takes a sliver of the CPU share, so
	// conservation holds to ~1%, not exactly.
	for _, n := range []int{1, 2, 4, 8} {
		k := "conservation_err_n" + string(rune('0'+n))
		if res.Headline[k] > 0.02 {
			t.Errorf("%s = %v, want < 2%%", k, res.Headline[k])
		}
	}
}

func TestAblationOrdering(t *testing.T) {
	res, err := RunAblateAttribution(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Headline["err_eq1_w"] >= res.Headline["err_equal_w"] {
		t.Errorf("Eq.1 error %v should beat equal split %v",
			res.Headline["err_eq1_w"], res.Headline["err_equal_w"])
	}
	if res.Headline["err_eq1_w"] >= res.Headline["err_mem_w"] {
		t.Errorf("Eq.1 error %v should beat memory-only %v",
			res.Headline["err_eq1_w"], res.Headline["err_mem_w"])
	}

	src, err := RunAblateSources(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if src.Headline["rapl_gap_pct"] < 5 {
		t.Errorf("RAPL coverage gap = %v%%, expected a visible gap", src.Headline["rapl_gap_pct"])
	}
}

func TestCleanupReducesCardinality(t *testing.T) {
	if testing.Short() {
		t.Skip("hour-long churn sim")
	}
	res, err := RunAblateCleanup(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Headline["series_with"] >= res.Headline["series_without"] {
		t.Errorf("cleanup did not reduce series: %v vs %v",
			res.Headline["series_with"], res.Headline["series_without"])
	}
}

func TestScaleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full 1400-node topology")
	}
	res, err := RunScale(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Headline["nodes"] < 1300 {
		t.Errorf("nodes = %v", res.Headline["nodes"])
	}
	if res.Headline["realtime_x"] < 1 {
		t.Errorf("simulation slower than real time: %vx", res.Headline["realtime_x"])
	}
	t.Logf("\n%s", res.Text)
}
