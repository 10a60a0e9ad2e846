package thanos

import (
	"time"

	"errors"
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
)

// TestStoreSelectWithHintsBudget verifies the cold-store sample budget:
// the block decode itself must abort with ErrSampleLimit when one block
// alone exceeds the budget, and an adequate budget must return the same
// result as plain Select.
func TestStoreSelectWithHintsBudget(t *testing.T) {
	db := seedDB(t, 4, 200, 0) // 800 samples in one block
	store, _ := NewStore("")
	mustCut(t, store, db, 0, 1<<60)
	m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m")

	_, err := store.SelectWithHints(model.SelectHints{Start: 0, End: 1 << 60, SampleLimit: 100}, m)
	if !errors.Is(err, model.ErrSampleLimit) {
		t.Fatalf("expected ErrSampleLimit from single-block overrun, got %v", err)
	}

	got, err := store.SelectWithHints(model.SelectHints{Start: 0, End: 1 << 60, SampleLimit: 800}, m)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := store.SelectWithHints(model.SelectHints{Start: 0, End: 1 << 60}, m)
	if len(got) != len(want) {
		t.Fatalf("hinted select returned %d series, plain %d", len(got), len(want))
	}

	// The fan-in querier threads hints through both sides.
	q := &Querier{Hot: db, Cold: store}
	_, err = q.SelectWithHints(model.SelectHints{Start: 0, End: 1 << 60, SampleLimit: 100}, m)
	if !errors.Is(err, model.ErrSampleLimit) {
		t.Fatalf("querier: expected ErrSampleLimit, got %v", err)
	}
}

// TestStoreRawAfterCapsDownsampled: with RawAfter set (the hot head's min
// time), downsampled groups must stop strictly before it — the tail of the
// window is served raw so the head overlap is never double-represented.
func TestStoreRawAfterCapsDownsampled(t *testing.T) {
	db := seedDB(t, 1, 400, 0) // one series, 15s scrape, 100 minutes
	store, _ := NewStore(t.TempDir())
	mustCut(t, store, db, 0, 1<<60)
	if n, err := store.Downsample(1<<60, 5*time.Minute); err != nil || n != 1 {
		t.Fatalf("downsample = %d, %v", n, err)
	}
	m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m")

	const rawAfter = 3_000_000 // 50 min in: bucket boundary
	got, err := store.SelectWithHints(model.SelectHints{
		Start: 0, End: 1 << 60,
		Step:     25 * 60 * 1000, // maxRes = 5m: downsampled eligible
		Func:     "max_over_time",
		RawAfter: rawAfter,
	}, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d series, want 1", len(got))
	}
	var aggr, raw int
	for _, s := range got[0].Samples {
		if s.T < rawAfter {
			// Aggregate points: one per 5m bucket, at the bucket end,
			// carrying the bucket max (values are 0..399 ascending).
			if (s.T+1)%300000 != 0 {
				t.Fatalf("pre-RawAfter point at %d is not a bucket end", s.T)
			}
			k := s.T / 300000
			if want := float64(20*k + 19); s.V != want {
				t.Fatalf("bucket %d max = %g, want %g", k, s.V, want)
			}
			aggr++
		} else {
			if s.T%15000 != 0 {
				t.Fatalf("post-RawAfter point at %d is not a raw scrape", s.T)
			}
			raw++
		}
	}
	if aggr != 10 || raw != 200 {
		t.Fatalf("aggr=%d raw=%d, want 10 aggregate buckets and 200 raw samples", aggr, raw)
	}
}

// TestQuerierReadsColdThenHot pins the order and the error semantics of the
// serial fan-in: a cold side over budget ends the Select before the head is
// touched (the failing Select allocates exactly what the store's own failing
// read does, and a head read alone allocates more than nothing), while a
// cold side inside the budget lets a head over it fail the query all the
// same.
func TestQuerierReadsColdThenHot(t *testing.T) {
	db := seedDB(t, 4, 200, 0) // 800 samples, 15 s apart
	store, _ := NewStore("")
	mustCut(t, store, db, 0, 99*15000) // the first 100 of each series: 400 samples cold
	q := &Querier{Hot: db, Cold: store}
	m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m")
	hmin, _ := db.MinTime()

	coldOver := model.SelectHints{Start: 0, End: 1 << 60, SampleLimit: 100}
	if _, err := q.SelectWithHints(coldOver, m); !errors.Is(err, model.ErrSampleLimit) {
		t.Fatalf("cold side over budget: err = %v", err)
	}
	asCold := coldOver
	asCold.RawAfter = hmin
	viaQuerier := testing.AllocsPerRun(50, func() { q.SelectWithHints(coldOver, m) })
	coldAlone := testing.AllocsPerRun(50, func() { store.SelectWithHints(asCold, m) })
	hotAlone := testing.AllocsPerRun(50, func() { db.SelectWithHints(coldOver, m) })
	if viaQuerier != coldAlone || hotAlone == 0 {
		t.Errorf("a cold error must end the Select before the hot read: querier allocates %.0f times, the store alone %.0f, the head alone %.0f",
			viaQuerier, coldAlone, hotAlone)
	}

	hotOver := model.SelectHints{Start: 0, End: 1 << 60, SampleLimit: 500}
	if _, err := store.SelectWithHints(hotOver, m); err != nil {
		t.Fatalf("cold side inside budget: %v", err)
	}
	if _, err := q.SelectWithHints(hotOver, m); !errors.Is(err, model.ErrSampleLimit) {
		t.Fatalf("hot side over budget: err = %v, want ErrSampleLimit", err)
	}
	within := model.SelectHints{Start: 0, End: 1 << 60, SampleLimit: 800}
	got, err := q.SelectWithHints(within, m)
	if err != nil || len(got) != 4 || len(got[0].Samples) != 200 {
		t.Fatalf("both sides inside budget: %d series, err %v", len(got), err)
	}
}
