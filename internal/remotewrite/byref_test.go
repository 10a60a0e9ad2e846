package remotewrite

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/scrape"
	"repro/internal/tsdb"
)

// pushText frames each payload as one raw frame of one request, posts it and
// returns how many samples the receiver decoded and appended.
func pushText(t testing.TB, rcv *Receiver, payloads ...string) (decoded, appended int) {
	t.Helper()
	body := []byte(Magic)
	for _, p := range payloads {
		body = appendFrame(body, []byte(p), false, 0)
	}
	w := postStream(t, rcv, body)
	var resp struct {
		Data struct{ Decoded, Appended int } `json:"data"`
	}
	if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &resp) != nil {
		t.Errorf("push: %d %s", w.Code, w.Body)
	}
	return resp.Data.Decoded, resp.Data.Appended
}

// seriesText renders one sample line per series name{uuid="<prefix><i>"}.
func seriesText(name, prefix string, lo, hi int, ts int64) string {
	var b strings.Builder
	for i := lo; i < hi; i++ {
		fmt.Fprintf(&b, "%s{uuid=\"%s%d\"} %d %d\n", name, prefix, i, i, ts)
	}
	return b.String()
}

// samplesAt counts the samples of the series ms select with T >= from.
func samplesAt(t testing.TB, db *tsdb.DB, from int64, ms ...*labels.Matcher) (series, samples int) {
	t.Helper()
	all, err := db.Select(from, math.MaxInt64, ms...)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		samples += len(s.Samples)
	}
	return len(all), samples
}

// staticFetcher serves one exposition to every target.
type staticFetcher string

func (f staticFetcher) Fetch(context.Context, string) (io.ReadCloser, error) {
	return io.NopCloser(strings.NewReader(string(f))), nil
}

// TestIngestByRefRacesDeleteAndTruncate races DeleteSeries and Truncate
// against pushes and scrapes of the series they remove, so that the entries
// of the receiver's cache and of the scrape targets hold handles on series
// the head drops under them. Every push is acknowledged whole; the kept
// series hold every acknowledged sample the truncates could not reach; and
// after one last delete and truncate, a push and a scrape of every series
// lands in the head — none in a series it dropped.
func TestIngestByRefRacesDeleteAndTruncate(t *testing.T) {
	db, err := tsdb.Open(tsdb.Options{WALDir: t.TempDir(), Shards: 4, MaxSamplesPerChunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rcv := &Receiver{NewBatch: func() scrape.Batch { return db.Appender() }}
	const t0, rounds = int64(1_700_000_000_000), 120
	var round atomic.Int64
	mgr := &scrape.Manager{
		Fetcher:     staticFetcher(seriesText("scr_victim", "v", 0, 8, 0) + seriesText("scr_keep", "k", 0, 8, 0)),
		Groups:      []*scrape.TargetGroup{{JobName: "scr", Targets: []string{"t0", "t1"}}},
		NewBatch:    func() scrape.Batch { return db.Appender() },
		Now:         func() time.Time { return time.UnixMilli(t0 + round.Load()*1000) },
		Parallelism: 2,
	}
	victims := labels.MustMatcher(labels.MatchRegexp, labels.MetricName, "rw_victim|scr_victim|up")
	// rw_sparse is pushed one round in ten and is silent in between, so a
	// truncate drops it and the next push of it must find it gone.
	push := func(r int64) (decoded, appended int) {
		ts := t0 + r*1000
		payload := seriesText("rw_victim", "v", 0, 10, ts) + seriesText("rw_keep", "k", 0, 10, ts)
		if r%10 == 0 {
			payload += seriesText("rw_sparse", "s", 0, 4, ts)
		}
		return pushText(t, rcv, payload)
	}

	var maxMint atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the deleter
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			db.DeleteSeries(victims)
			mint := t0 + (round.Load()-3)*1000
			if mint > maxMint.Load() {
				maxMint.Store(mint)
			}
			if _, err := db.Truncate(mint); err != nil {
				t.Error(err)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	for r := int64(0); r < rounds; r++ {
		round.Store(r)
		var wgr sync.WaitGroup
		wgr.Add(1)
		go func() {
			defer wgr.Done()
			if decoded, appended := push(r); appended != decoded {
				t.Errorf("round %d: %d of %d pushed samples appended", r, appended, decoded)
			}
		}()
		mgr.ScrapeAll(context.Background())
		wgr.Wait()
		for target, h := range mgr.Health() {
			if !h.Up || h.Samples != 16 {
				t.Fatalf("round %d: %s: %+v", r, target, h)
			}
		}
	}
	close(done)
	wg.Wait()

	// The kept series were never deleted; the truncates only reach below
	// the last mint, so every sample acknowledged at or after it is there.
	from := maxMint.Load()
	acked := rounds - (from-t0)/1000
	for name, n := range map[string]int{"rw_keep": 10, "scr_keep": 16} {
		series, samples := samplesAt(t, db, from, labels.MustMatcher(labels.MatchEqual, labels.MetricName, name))
		if series != n || samples != n*int(acked) {
			t.Errorf("%s from the last mint: %d series, %d samples; want %d series, %d samples", name, series, samples, n, n*int(acked))
		}
	}

	// Every entry now holds a handle on a dropped series.
	db.DeleteSeries(victims)
	last := int64(rounds + 20)
	if _, err := db.Truncate(t0 + (last-1)*1000); err != nil {
		t.Fatal(err)
	}
	round.Store(last)
	if decoded, appended := push(last); decoded != 24 || appended != decoded {
		t.Errorf("last push: %d of %d samples appended", appended, decoded)
	}
	mgr.ScrapeAll(context.Background())
	for name, n := range map[string]int{"rw_victim": 10, "rw_keep": 10, "rw_sparse": 4, "scr_victim": 16, "scr_keep": 16, "up": 2, "scrape_duration_seconds": 2} {
		ts := t0 + last*1000
		series, samples := samplesAt(t, db, ts, labels.MustMatcher(labels.MatchEqual, labels.MetricName, name))
		if series != n || samples != n {
			t.Errorf("%s at the last round: %d series, %d samples; want %d of each", name, series, samples, n)
		}
	}
}

// TestIngestByRefAcrossHeads: a long-lived receiver whose batches go to
// whichever head is open keeps entries whose handles are of a head closed
// since. A push after the head is reopened from its journal lands in the new
// head, which then holds the replayed and the new samples.
func TestIngestByRefAcrossHeads(t *testing.T) {
	opts := tsdb.Options{WALDir: t.TempDir(), Shards: 4}
	var cur atomic.Pointer[tsdb.DB]
	open := func() {
		db, err := tsdb.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		cur.Store(db)
	}
	open()
	rcv := &Receiver{NewBatch: func() scrape.Batch { return cur.Load().Appender() }}
	const t0 = int64(1_700_000_000_000)
	for r := int64(0); r < 6; r++ {
		if r == 2 || r == 4 {
			if err := cur.Load().Close(); err != nil {
				t.Fatal(err)
			}
			open()
		}
		if decoded, appended := pushText(t, rcv, seriesText("rw_heads", "u", 0, 20, t0+r*1000)); decoded != 20 || appended != 20 {
			t.Fatalf("round %d: %d of %d samples appended", r, appended, decoded)
		}
	}
	db := cur.Load()
	defer db.Close()
	if series, samples := samplesAt(t, db, t0, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "rw_heads")); series != 20 || samples != 120 {
		t.Errorf("head after two reopenings: %d series, %d samples; want 20 and 120", series, samples)
	}
}

// TestIngestByRefConcurrentPushes: requests pushing overlapping series at
// once share the receiver's cache and publish handles on the same entries.
// The series are in the head before the first push, so a handle is
// published under the shard's read lock, which orders nothing between two
// requests. Under -race this is the check that the publication is clean;
// every sample of every request lands, each at its own timestamp.
func TestIngestByRefConcurrentPushes(t *testing.T) {
	db := tsdb.MustOpen(tsdb.Options{Shards: 4, OutOfOrderWindow: 3_600_000})
	rcv := &Receiver{NewBatch: func() scrape.Batch { return db.Appender() }}
	const t0, pushers, rounds = int64(1_700_000_000_000), 4, 25
	a := db.Appender()
	for i := 0; i < 5*pushers+5; i++ {
		a.Add(labels.FromStrings(labels.MetricName, "rw_overlap", "uuid", fmt.Sprintf("u%d", i)), t0-1000, 0)
	}
	if _, err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < pushers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Pusher g pushes series [5g, 5g+10): each overlaps its neighbours'.
				ts := t0 + int64(r*pushers+g)*1000
				if decoded, appended := pushText(t, rcv, seriesText("rw_overlap", "u", 5*g, 5*g+10, ts)); decoded != 10 || appended != 10 {
					t.Errorf("pusher %d round %d: %d of %d samples appended", g, r, appended, decoded)
				}
			}
		}()
	}
	wg.Wait()
	all, err := db.Select(0, math.MaxInt64, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "rw_overlap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5*pushers+5 {
		t.Fatalf("%d series, want %d", len(all), 5*pushers+5)
	}
	for _, s := range all {
		var i int
		fmt.Sscanf(s.Labels.Get("uuid"), "u%d", &i)
		pushedBy := 2 // pushers i/5-1 and i/5
		if i < 5 || i >= 5*pushers {
			pushedBy = 1
		}
		if len(s.Samples) != pushedBy*rounds+1 {
			t.Errorf("%s: %d samples, want %d", s.Labels, len(s.Samples), pushedBy*rounds+1)
		}
	}
}

// TestIngestSeriesCacheBound: the receiver's cache holds what the last two
// rounds pushed. A churn stream, every request carrying fresh series and
// 15 s of sample time past the last, leaves it no more than the series of
// the requests within two rounds and a request of the newest, also after one
// sample pushed a century ahead; four agents pushing their own series in
// turn keep every entry from one cycle to the next, so a steady push is one
// map lookup a sample, whatever the agents.
func TestIngestSeriesCacheBound(t *testing.T) {
	const t0, step = int64(1_700_000_000_000), int64(15_000)
	// churn pushes 400 requests of fresh series, the first with extra lines
	// too, and checks after each that the cache holds no more than the last
	// two rounds and a request pushed.
	churn := func(t *testing.T, rcv *Receiver, extra string, nExtra int) {
		var sizes []int
		next := 0
		for r := 0; r < 400; r++ {
			n := 1 + (r*7919)%50
			payload := seriesText("rw_churn", "c", next, next+n, t0+int64(r)*step)
			if r == 0 {
				payload, n = payload+extra, n+nExtra
			}
			pushText(t, rcv, payload)
			next += n
			sizes = append(sizes, n)
			recent := 0 // series pushed within two rounds and a request of the newest
			for j := r; j >= 0 && int64(r-j)*step < 2*(roundSpan+step); j-- {
				recent += sizes[j]
			}
			if got := rcv.series.Len(); got > recent {
				t.Fatalf("request %d: cache holds %d entries, the last two rounds pushed %d series", r, got, recent)
			}
		}
	}
	t.Run("churn", func(t *testing.T) {
		db := tsdb.MustOpen(tsdb.Options{})
		churn(t, &Receiver{NewBatch: func() scrape.Batch { return db.Appender() }}, "", 0)
	})
	t.Run("future", func(t *testing.T) {
		// One sample a century ahead must not stop the sweeps: the wall
		// clock, here one step per request, ends the rounds the samples
		// cannot. A frame that is refused does not move the round clock.
		db := tsdb.MustOpen(tsdb.Options{})
		receiver := func() *Receiver {
			rcv := &Receiver{NewBatch: func() scrape.Batch { return db.Appender() }}
			wall := time.Unix(0, 0)
			rcv.wallClock = func() time.Time { wall = wall.Add(time.Duration(step) * time.Millisecond); return wall }
			return rcv
		}
		future := t0 + 100*365*24*3600*1000
		rcv := receiver()
		body := appendFrame([]byte(Magic), []byte(seriesText("rw_future", "r", 0, 1, future)+"rw_unstamped 1\n"), false, 0)
		if w := postStream(t, rcv, body); w.Code != http.StatusBadRequest {
			t.Fatalf("unstamped frame: %d %s", w.Code, w.Body)
		}
		if rcv.swept != 0 {
			t.Fatalf("a refused frame moved the round clock to %d", rcv.swept)
		}
		churn(t, receiver(), seriesText("rw_future", "f", 0, 1, future), 1)
	})
	t.Run("agents", func(t *testing.T) {
		db := tsdb.MustOpen(tsdb.Options{})
		rcv := &Receiver{NewBatch: func() scrape.Batch { return db.Appender() }}
		const agents, n = 4, 100
		keys := func(a int) []string {
			var out []string
			for i := 0; i < n; i++ {
				out = append(out, fmt.Sprintf("rw_agent{uuid=\"a%d-%d\"}", a, i))
			}
			return out
		}
		first := map[string]*labels.CacheEntry{}
		for r := 0; r < 40*agents; r++ {
			a := r % agents
			pushText(t, rcv, seriesText("rw_agent", fmt.Sprintf("a%d-", a), 0, n, t0+int64(r/agents)*step))
			for _, k := range keys(a) {
				e := rcv.series.Get([]byte(k))
				if e == nil {
					t.Fatalf("request %d: %s is not cached", r, k)
				}
				if r < agents {
					first[k] = e
				} else if first[k] != e {
					t.Fatalf("request %d: %s was evicted and cached again", r, k)
				}
			}
		}
		if got := rcv.series.Len(); got != agents*n {
			t.Errorf("cache holds %d entries, want %d", got, agents*n)
		}
	})
}
