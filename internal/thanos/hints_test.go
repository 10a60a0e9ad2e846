package thanos

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/tsdb"
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

// TestStoreRawAfterCapsDownsampled: a Querier whose head starts at 3 000 000
// ms (50 min in, a bucket boundary) serves downsampled points strictly before
// the head's minimum time and raw samples from there on, out of the raw
// block and the head alike — the head overlap is never double-represented.
func TestStoreRawAfterCapsDownsampled(t *testing.T) {
	db := seedDB(t, 1, 400, 0) // one series, 15s scrape, 100 minutes
	store, _ := NewStore(t.TempDir())
	mustCut(t, store, db, 0, 1<<60)
	if n, err := store.Downsample(1<<60, 5*time.Minute); err != nil || n != 1 {
		t.Fatalf("downsample = %d, %v", n, err)
	}
	const headMin = 3_000_000
	head := tsdb.MustOpen(tsdb.DefaultOptions())
	ls := labels.FromStrings(labels.MetricName, "m", "s", "0")
	for j := int64(headMin / 15000); j < 400; j++ {
		if err := head.Append(ls, j*15000, float64(j)); err != nil {
			t.Fatal(err)
		}
	}
	m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m")

	q := &Querier{Hot: head, Cold: store}
	got, err := q.SelectWithHints(model.SelectHints{
		Start: 0, End: 1 << 60,
		Step: 25 * 60 * 1000, // maxRes = 5m: downsampled eligible
		Func: "max_over_time",
	}, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d series, want 1", len(got))
	}
	var aggr, raw int
	for _, s := range got[0].Samples {
		if s.T < headMin {
			// Aggregate points: one per 5m bucket, at the bucket end,
			// carrying the bucket max (values are 0..399 ascending).
			if (s.T+1)%300000 != 0 {
				t.Fatalf("point at %d, before the head's minimum time, is not a bucket end", s.T)
			}
			k := s.T / 300000
			if want := float64(20*k + 19); s.V != want {
				t.Fatalf("bucket %d max = %g, want %g", k, s.V, want)
			}
			aggr++
		} else {
			if s.T%15000 != 0 || s.V != float64(s.T/15000) {
				t.Fatalf("point (%d, %g), from the head's minimum time on, is not a raw scrape", s.T, s.V)
			}
			raw++
		}
	}
	if aggr != 10 || raw != 200 {
		t.Fatalf("aggr=%d raw=%d, want 10 aggregate buckets and 200 raw samples", aggr, raw)
	}
}

// TestQuerierReadsColdThenHot pins the one budget of a read over both tiers:
// the limit bounds the merged result, not each tier. Cold and hot hold 400
// samples each; a limit of 400 fits either tier alone and fails the read, and
// the merged 800 is the least limit that passes.
func TestQuerierReadsColdThenHot(t *testing.T) {
	whole := seedDB(t, 4, 200, 0) // 800 samples, 15 s apart
	store, _ := NewStore("")
	mustCut(t, store, whole, 0, 99*15000) // the first 100 of each series: 400 samples cold
	hot := tsdb.MustOpen(tsdb.DefaultOptions())
	for i := 0; i < 4; i++ { // the last 100 of each series: 400 samples hot
		ls := labels.FromStrings(labels.MetricName, "m", "s", fmt.Sprint(i))
		for j := 100; j < 200; j++ {
			if err := hot.Append(ls, int64(j)*15000, float64(i*1000+j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	q := &Querier{Hot: hot, Cold: store}
	m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m")
	read := func(limit int64) ([]model.Series, error) {
		return q.SelectWithHints(model.SelectHints{Start: 0, End: 1 << 60, SampleLimit: limit}, m)
	}

	want, err := read(0)
	if err != nil || len(want) != 4 || len(want[0].Samples) != 200 {
		t.Fatalf("unlimited read: %d series, err %v", len(want), err)
	}
	for _, tier := range []promql.Queryable{store, hot} {
		if _, err := tier.SelectWithHints(model.SelectHints{Start: 0, End: 1 << 60, SampleLimit: 400}, m); err != nil {
			t.Fatalf("one tier alone over a budget of 400: %v", err)
		}
	}
	for _, limit := range []int64{400, 799} {
		if _, err := read(limit); !errors.Is(err, model.ErrSampleLimit) {
			t.Errorf("merged 800 samples under a budget of %d: err = %v, want ErrSampleLimit", limit, err)
		}
	}
	if got, err := read(800); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("budget of 800: %d series, err %v; want the unlimited answer", len(got), err)
	}
}

// TestQuerierBudgetExactAtEveryBlockSeam: the sample budget of a read over
// both tiers is exact wherever the seam falls. A small dataset is cut into a
// block at every one of its timestamps, with the head kept whole (every cold
// sample also hot) and truncated to the cut (chunks straddling it still
// overlap); at every cut a Querier read whose SampleLimit is the merged
// result's sample count returns the unlimited answer bit for bit, and one
// sample less fails with model.ErrSampleLimit — for a plain read and for one
// trimmed to a step grid.
func TestQuerierBudgetExactAtEveryBlockSeam(t *testing.T) {
	var all []model.Series
	var cuts []int64
	for i := 0; i < 3; i++ {
		s := model.Series{Labels: labels.FromStrings(labels.MetricName, "m", "s", fmt.Sprint(i))}
		for j := 0; j < 12; j++ {
			ts := int64(j*10_000 + i*3_000)
			s.Samples = append(s.Samples, model.Sample{T: ts, V: float64(i*100 + j)})
			cuts = append(cuts, ts)
		}
		all = append(all, s)
	}
	cuts = append(cuts, -1)
	m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m")
	reads := []model.SelectHints{
		{Start: 0, End: 200_000},
		{Start: 5_000, End: 95_000, Step: 20_000, Lookback: 15_000}, // a bare selector's steps
	}
	for _, cut := range cuts {
		for _, truncate := range []bool{false, true} {
			// Four samples to a chunk, so that truncation finds closed chunks
			// to drop.
			hot := tsdb.MustOpen(tsdb.Options{Shards: 2, MaxSamplesPerChunk: 4})
			for _, s := range all {
				if err := hot.AppendSeries(s.Labels, s.Samples); err != nil {
					t.Fatal(err)
				}
			}
			cold, _ := NewStore("")
			if _, err := cold.CutHead(hot, 0, cut); err != nil {
				t.Fatal(err)
			}
			if truncate {
				hot.Truncate(cut + 1)
			}
			q := &Querier{Hot: hot, Cold: cold}
			for _, h := range reads {
				what := fmt.Sprintf("cut %d truncate %v %+v", cut, truncate, h)
				want, err := q.SelectWithHints(h, m)
				if err != nil {
					t.Fatal(err)
				}
				n := int64(0)
				for _, s := range want {
					n += int64(len(s.Samples))
				}
				if n < 2 {
					t.Fatalf("%s: %d samples; the fixture wants a budget to spend", what, n)
				}
				h.SampleLimit = n
				if got, err := q.SelectWithHints(h, m); err != nil || !sameSeries(got, want) {
					t.Fatalf("%s: %d series, err %v; want the unlimited answer\n got %v\nwant %v", what, len(got), err, got, want)
				}
				h.SampleLimit = n - 1
				if _, err := q.SelectWithHints(h, m); !errors.Is(err, model.ErrSampleLimit) {
					t.Fatalf("%s: %d samples under a budget of %d: err = %v, want ErrSampleLimit", what, n, n-1, err)
				}
			}
		}
	}
}

// sameSeries reports whether a and b hold the same series, labels and
// sample bits alike.
func sameSeries(a, b []model.Series) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Labels.Equal(b[i].Labels) || len(a[i].Samples) != len(b[i].Samples) {
			return false
		}
		for j, s := range a[i].Samples {
			if o := b[i].Samples[j]; s.T != o.T || math.Float64bits(s.V) != math.Float64bits(o.V) {
				return false
			}
		}
	}
	return true
}

// TestReadWithoutMatchersReadsNoBlock: a read without matchers fails with
// tsdb.ErrNoMatchers from the head, the store and the querier alike, before
// any source is read. The store's one block has a corrupt chunk, so a read
// that reached it could only fail with a chunk error.
func TestReadWithoutMatchersReadsNoBlock(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := seedDB(t, 2, 50, 0)
	mustCut(t, store, db, 0, 1<<60)
	chunks := filepath.Join(dir, store.BlockMetas()[0].ULID, tsdb.ChunksFilename)
	store.Close()
	data, err := os.ReadFile(chunks)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // the last chunk's payload: its CRC no longer holds
	if err := os.WriteFile(chunks, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if store, err = NewStore(dir); err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	all := model.SelectHints{Start: 0, End: 1 << 60}
	if _, err := store.SelectWithHints(all, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m")); err == nil || errors.Is(err, tsdb.ErrNoMatchers) {
		t.Fatalf("a read of the corrupt block: err = %v, want its chunk error", err)
	}
	for _, c := range []struct {
		name string
		q    promql.Queryable
	}{
		{"head", db},
		{"store", store},
		{"querier", &Querier{Hot: db, Cold: store}},
	} {
		if got, err := c.q.SelectWithHints(all); !errors.Is(err, tsdb.ErrNoMatchers) || got != nil {
			t.Errorf("%s: a read without matchers returned %d series, err %v; want ErrNoMatchers", c.name, len(got), err)
		}
	}
}
