package tsdb

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
)

func oooLabels(name string) labels.Labels {
	return labels.FromMap(map[string]string{labels.MetricName: name})
}

// TestOOOWindowDisabledKeepsStrictOrdering proves the default behavior is
// byte-for-byte the old one: any non-increasing timestamp errors.
func TestOOOWindowDisabledKeepsStrictOrdering(t *testing.T) {
	db := MustOpen(Options{})
	ls := oooLabels("strict")
	if err := db.Append(ls, 1000, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(ls, 1000, 1); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("duplicate under strict mode: got %v, want ErrOutOfOrder", err)
	}
	if err := db.Append(ls, 500, 1); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("backwards under strict mode: got %v, want ErrOutOfOrder", err)
	}
}

func TestOOOWindowAcceptAndMerge(t *testing.T) {
	db := MustOpen(Options{OutOfOrderWindow: 60_000})
	ls := oooLabels("ooo")
	for _, ts := range []int64{10_000, 20_000, 30_000, 40_000} {
		if err := db.Append(ls, ts, float64(ts)); err != nil {
			t.Fatal(err)
		}
	}
	// Late samples inside the window (bound = 40000-60000 < 0).
	for _, ts := range []int64{15_000, 35_000, 5_000} {
		if err := db.Append(ls, ts, float64(ts)); err != nil {
			t.Fatalf("in-window late sample t=%d: %v", ts, err)
		}
	}
	got := selectAllSamples(t, db, "ooo")
	want := []int64{5_000, 10_000, 15_000, 20_000, 30_000, 35_000, 40_000}
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d: %v", len(got), len(want), got)
	}
	for i, s := range got {
		if s.T != want[i] {
			t.Fatalf("sample %d: t=%d want %d", i, s.T, want[i])
		}
	}
}

func TestOOOWindowTooOldAndDuplicates(t *testing.T) {
	db := MustOpen(Options{OutOfOrderWindow: 10_000})
	ls := oooLabels("bounds")
	if err := db.Append(ls, 100_000, 1); err != nil {
		t.Fatal(err)
	}
	// Past the window: 100000-10000 = 90000 bound; t <= bound is too old.
	err := db.Append(ls, 90_000, 1)
	if !errors.Is(err, ErrTooOld) {
		t.Fatalf("too-old sample: got %v, want ErrTooOld", err)
	}
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatal("ErrTooOld must wrap ErrOutOfOrder so skip sites keep working")
	}
	// Inside the window.
	if err := db.Append(ls, 95_000, 2); err != nil {
		t.Fatal(err)
	}
	// Exact duplicates are silently skipped — both in-order head dup and
	// ooo-buffer dup.
	if err := db.Append(ls, 100_000, 99); err != nil {
		t.Fatalf("duplicate of lastT: %v", err)
	}
	if err := db.Append(ls, 95_000, 99); err != nil {
		t.Fatalf("duplicate in ooo buffer: %v", err)
	}
	got := selectAllSamples(t, db, "bounds")
	if len(got) != 2 || got[0].T != 95_000 || got[1].T != 100_000 {
		t.Fatalf("unexpected samples: %v", got)
	}
	// First write wins: the duplicate values (99) must not have replaced
	// the originals.
	if got[0].V != 2 || got[1].V != 1 {
		t.Fatalf("duplicate overwrote a value: %v", got)
	}
}

// TestOOOWindowBatchRetryIdempotent is the remote-write retry scenario: a
// batch commits, the agent times out and resends the identical batch, and
// the head must end up with exactly one copy and report the resend as
// duplicates.
func TestOOOWindowBatchRetryIdempotent(t *testing.T) {
	db := MustOpen(Options{OutOfOrderWindow: 300_000})
	send := func() (int, CommitStats) {
		a := db.Appender()
		for i := 0; i < 10; i++ {
			a.Add(oooLabels(fmt.Sprintf("retry_%d", i%3)), int64(1000*(i+1)), float64(i))
		}
		n, err := a.Commit()
		if err != nil {
			t.Fatal(err)
		}
		return n, a.LastCommitStats()
	}
	n1, st1 := send()
	if n1 != 10 || st1.Duplicates != 0 {
		t.Fatalf("first send: appended %d (stats %+v)", n1, st1)
	}
	n2, st2 := send()
	if n2 != 0 {
		t.Fatalf("resend appended %d samples, want 0", n2)
	}
	if st2.Duplicates != 10 || st2.TooOld != 0 {
		t.Fatalf("resend stats %+v, want 10 duplicates", st2)
	}
	epoch := db.AppendEpoch()
	if epoch != 10 {
		t.Fatalf("append epoch %d after retry, want 10", epoch)
	}
}

func TestOOOCommitStatsBreakdown(t *testing.T) {
	db := MustOpen(Options{OutOfOrderWindow: 10_000})
	ls := oooLabels("stats")
	if err := db.Append(ls, 100_000, 1); err != nil {
		t.Fatal(err)
	}
	a := db.Appender()
	a.Add(ls, 101_000, 1) // in order
	a.Add(ls, 99_000, 1)  // ooo, in window
	a.Add(ls, 100_000, 1) // duplicate
	a.Add(ls, 50_000, 1)  // too old
	n, err := a.Commit()
	if err != nil {
		t.Fatal(err)
	}
	st := a.LastCommitStats()
	if n != 2 || st.Appended != 1 || st.OOOAccepted != 1 || st.Duplicates != 1 || st.TooOld != 1 {
		t.Fatalf("n=%d stats=%+v", n, st)
	}
}

// TestOOOAppendSeriesSkipsDuplicates exercises the non-contiguous WAL
// collection path: duplicates inside one AppendSeries batch are skipped
// without aborting the rest.
func TestOOOAppendSeriesSkipsDuplicates(t *testing.T) {
	db := MustOpen(Options{OutOfOrderWindow: 60_000})
	ls := oooLabels("batch")
	err := db.AppendSeries(ls, []model.Sample{
		{T: 1000, V: 1}, {T: 2000, V: 2}, {T: 1000, V: 9}, {T: 1500, V: 3}, {T: 3000, V: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := selectAllSamples(t, db, "batch")
	want := []model.Sample{{T: 1000, V: 1}, {T: 1500, V: 3}, {T: 2000, V: 2}, {T: 3000, V: 4}}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestOOOTruncatePrunesBuffer(t *testing.T) {
	db := MustOpen(Options{OutOfOrderWindow: 1 << 40})
	ls := oooLabels("trunc")
	for _, ts := range []int64{10_000, 20_000, 30_000} {
		if err := db.Append(ls, ts, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, ts := range []int64{12_000, 25_000} {
		if err := db.Append(ls, ts, 2); err != nil {
			t.Fatal(err)
		}
	}
	db.Truncate(15_000)
	got := selectAllSamples(t, db, "trunc")
	for _, s := range got {
		if s.T < 15_000 && s.V == 2 {
			t.Fatalf("truncate left pruned ooo sample %v", s)
		}
	}
	found := false
	for _, s := range got {
		if s.T == 25_000 {
			found = true
		}
	}
	if !found {
		t.Fatalf("truncate dropped in-retention ooo sample: %v", got)
	}
}

// TestOOOWALReplayRoundTrip proves accepted out-of-order samples are
// journalled and replayed byte-exact from both WAL formats (compress=false
// replays the journal rewritten as v1), including ones
// that would fail a replay-time window re-check (the bound is deliberately
// not re-applied on replay).
func TestOOOWALReplayRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{
				WALDir: dir, Shards: 4,
				OutOfOrderWindow: 30_000,
			}
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			type sk struct {
				series int
				t      int64
			}
			written := map[sk]float64{}
			base := int64(1_000_000)
			for batch := 0; batch < 50; batch++ {
				a := db.Appender()
				for s := 0; s < 8; s++ {
					ts := base + int64(batch)*1000 + int64(rng.Intn(500))
					// A third of appends go backwards inside the window.
					if batch > 3 && rng.Intn(3) == 0 {
						ts -= int64(rng.Intn(25_000))
					}
					a.Add(oooLabels(fmt.Sprintf("wal_%d", s)), ts, float64(batch*100+s))
				}
				if _, err := a.Commit(); err != nil {
					t.Fatal(err)
				}
				st := a.LastCommitStats()
				_ = st
			}
			before := map[string][]model.Sample{}
			for s := 0; s < 8; s++ {
				name := fmt.Sprintf("wal_%d", s)
				before[name] = selectAllSamples(t, db, name)
				for _, smp := range before[name] {
					written[sk{s, smp.T}] = smp.V
				}
			}
			// Reopen and compare.
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if !compress {
				rewriteWALAsV1(t, dir, 0)
			}
			db2, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < 8; s++ {
				name := fmt.Sprintf("wal_%d", s)
				after := selectAllSamples(t, db2, name)
				if len(after) != len(before[name]) {
					t.Fatalf("series %s: %d samples after replay, want %d",
						name, len(after), len(before[name]))
				}
				if !sort.SliceIsSorted(after, func(i, j int) bool { return after[i].T < after[j].T }) {
					t.Fatalf("series %s not sorted after replay", name)
				}
				for i := range after {
					if after[i] != before[name][i] {
						t.Fatalf("series %s sample %d: %v after replay, want %v",
							name, i, after[i], before[name][i])
					}
				}
			}
		})
	}
}

func selectAllSamples(t *testing.T, db *DB, name string) []model.Sample {
	t.Helper()
	m, err := labels.NewMatcher(labels.MatchEqual, labels.MetricName, name)
	if err != nil {
		t.Fatal(err)
	}
	series, err := db.Select(-(int64(1) << 62), int64(1)<<62, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) == 0 {
		return nil
	}
	if len(series) != 1 {
		t.Fatalf("expected one series for %s, got %d", name, len(series))
	}
	return series[0].Samples
}
