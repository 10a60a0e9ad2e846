package promql

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb"
)

// hintRecordingQueryable records the SampleLimit each hinted Select was
// given — the proof that the instant path threads the engine budget into
// the storage pass (where the head aborts mid-copy) rather than counting
// after materializing.
type hintRecordingQueryable struct {
	inner  *tsdb.DB
	limits []int64
}

func (h *hintRecordingQueryable) SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	h.limits = append(h.limits, hints.SampleLimit)
	return h.inner.SelectWithHints(hints, ms...)
}

func instantLimitsDB(t *testing.T) *tsdb.DB {
	t.Helper()
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	for s := 0; s < 50; s++ {
		ls := labels.FromStrings(labels.MetricName, "il_metric", "inst", fmt.Sprintf("i%02d", s))
		for i := int64(0); i < 100; i++ {
			if err := db.Append(ls, i*1000, float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestInstantQuerySampleLimit: an instant query whose selectors would
// materialize more than MaxSamples fails with a LimitError — through a store
// that honours the budget (enforced inside the storage pass) and through
// one that ignores it (enforced as the selectors accumulate).
func TestInstantQuerySampleLimit(t *testing.T) {
	db := instantLimitsDB(t)
	ts := time.UnixMilli(99_000)
	// 50 series x 100 samples in range: the matrix selector touches 5000.
	oversized := `sum(avg_over_time(il_metric[200s]))`

	for name, q := range map[string]Queryable{
		"hinted": db,
		"plain":  ignoresBudget{db},
	} {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			e.MaxSamples = 200
			_, err := e.Instant(q, oversized, ts)
			if !IsLimitError(err) {
				t.Fatalf("oversized instant query returned %v, want LimitError", err)
			}
			// A budget that fits must leave the result untouched.
			e.MaxSamples = 1 << 40
			if _, err := e.Instant(q, oversized, ts); err != nil {
				t.Fatalf("roomy budget: %v", err)
			}
		})
	}
}

// TestInstantQueryThreadsBudgetIntoStorage: the storage pass must receive
// the remaining budget via SelectHints — and successive selectors in one
// evaluation see a shrinking remainder, so a query cannot evade the budget
// by splitting its load across selectors.
func TestInstantQueryThreadsBudgetIntoStorage(t *testing.T) {
	db := instantLimitsDB(t)
	rec := &hintRecordingQueryable{inner: db}
	e := NewEngine()
	e.MaxSamples = 100_000
	ts := time.UnixMilli(99_000)
	if _, err := e.Instant(rec, `il_metric + on(inst) count_over_time(il_metric[30s])`, ts); err != nil {
		t.Fatalf("instant: %v", err)
	}
	if len(rec.limits) != 2 {
		t.Fatalf("want 2 hinted selects (one per selector), got %d", len(rec.limits))
	}
	if rec.limits[0] != 100_000 {
		t.Fatalf("first selector got SampleLimit %d, want the full budget 100000", rec.limits[0])
	}
	if rec.limits[1] >= rec.limits[0] {
		t.Fatalf("second selector's budget %d did not shrink below the first's %d",
			rec.limits[1], rec.limits[0])
	}
	// With no engine budget the hints must not invent one.
	rec.limits = nil
	e.MaxSamples = 0
	if _, err := e.Instant(rec, `il_metric`, ts); err != nil {
		t.Fatal(err)
	}
	if len(rec.limits) != 1 || rec.limits[0] != 0 {
		t.Fatalf("budget-less engine sent SampleLimit %v, want [0]", rec.limits)
	}
}

// TestInstantQueryBudgetUnchangedResults: enabling the budget must not
// change any in-budget result (the hinted and plain paths agree).
func TestInstantQueryBudgetUnchangedResults(t *testing.T) {
	db := instantLimitsDB(t)
	ts := time.UnixMilli(50_000)
	queries := []string{
		`il_metric{inst="i07"}`,
		`sum(il_metric)`,
		`rate(il_metric[60s])`,
		`topk(3, il_metric)`,
	}
	unlimited := NewEngine()
	unlimited.MaxSamples = 0
	budgeted := NewEngine()
	budgeted.MaxSamples = 1 << 30
	for _, qs := range queries {
		want, err := unlimited.Instant(db, qs, ts)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		got, err := budgeted.Instant(db, qs, ts)
		if err != nil {
			t.Fatalf("%s budgeted: %v", qs, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: budgeted result diverged:\n got %v\nwant %v", qs, got, want)
		}
	}
}
