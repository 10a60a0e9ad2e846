package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/expofmt"
	"repro/internal/labels"
	"repro/internal/remotewrite"
	"repro/internal/tsdb"
)

// bound is a server on a free loopback port.
func bound(t *testing.T, h http.Handler) *Server {
	t.Helper()
	s := &Server{Name: "test", Addr: "127.0.0.1:0", Handler: h}
	if err := Bind(s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runAsync runs p with the given drain and returns the channel run's error
// arrives on.
func runAsync(ctx context.Context, p Process, drain time.Duration) <-chan error {
	done := make(chan error, 1)
	go func() { done <- run(ctx, p, drain) }()
	return done
}

// waitDone fails the test unless run returns within d.
func waitDone(t *testing.T, done <-chan error, d time.Duration) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("run still running %v after the stop", d)
		return nil
	}
}

// TestRunCancelsRequestsPastDrain: a handler that blocks past the drain
// deadline sees its request's context cancelled, run returns within the
// deadline plus a second, and the closers run after the handler returned.
func TestRunCancelsRequestsPastDrain(t *testing.T) {
	const drain = 300 * time.Millisecond
	entered := make(chan struct{})
	var handlerErr error
	var handlerDone atomic.Bool
	srv := bound(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-r.Context().Done()
		handlerErr = r.Context().Err()
		handlerDone.Store(true)
	}))
	var closedAfterHandler bool
	ctx, cancel := context.WithCancel(context.Background())
	done := runAsync(ctx, Process{
		Servers: []*Server{srv},
		Closers: []func() error{func() error { closedAfterHandler = handlerDone.Load(); return nil }},
	}, drain)
	go func() {
		if resp, err := http.Get("http://" + srv.BoundAddr()); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	start := time.Now()
	cancel()
	if err := waitDone(t, done, drain+5*time.Second); err != nil {
		t.Fatalf("run returned %v", err)
	}
	if took := time.Since(start); took < drain || took > drain+time.Second {
		t.Errorf("run returned %v after the stop, want within [%v, %v]", took, drain, drain+time.Second)
	}
	if !errors.Is(handlerErr, context.Canceled) {
		t.Errorf("the blocked handler's context ended with %v, want cancelled", handlerErr)
	}
	if !closedAfterHandler {
		t.Error("a closer ran before the blocked handler returned")
	}
}

// TestRunServerFailureStopsEverything: a server whose Serve fails stops the
// process: the loops are cancelled and every closer runs once, in order,
// and the failure is returned with the closers' errors.
func TestRunServerFailureStopsEverything(t *testing.T) {
	healthy := bound(t, http.NotFoundHandler())
	broken := bound(t, http.NotFoundHandler())
	broken.Close() // Serve fails at once
	var loopCancelled atomic.Bool
	var order []int
	closer := func(i int, err error) func() error {
		return func() error { order = append(order, i); return err }
	}
	closeErr := errors.New("second closer failed")
	done := runAsync(context.Background(), Process{
		Servers: []*Server{healthy, broken},
		Loops: []Loop{func(ctx context.Context) {
			<-ctx.Done()
			loopCancelled.Store(true)
		}},
		Closers: []func() error{closer(1, nil), closer(2, closeErr), closer(3, nil)},
	}, time.Second)
	err := waitDone(t, done, 10*time.Second)
	if err == nil || !errors.Is(err, closeErr) {
		t.Fatalf("run returned %v, want the serve failure and the closer's error", err)
	}
	if want := "serve test on " + broken.BoundAddr(); !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("run returned %q, want it to name %q", err, want)
	}
	if !loopCancelled.Load() {
		t.Error("the loop was not cancelled")
	}
	if !slices.Equal(order, []int{1, 2, 3}) {
		t.Errorf("closers ran %v, want [1 2 3]", order)
	}
	if _, err := http.Get("http://" + healthy.BoundAddr()); err == nil {
		t.Error("the healthy server still answers after run returned")
	}
}

// TestRunStopsWhenALoopEnds: a loop that returns on its own (cluster_sim's
// run at the end of -duration) stops the process cleanly.
func TestRunStopsWhenALoopEnds(t *testing.T) {
	var closed atomic.Int32
	done := runAsync(context.Background(), Process{
		Servers: []*Server{bound(t, http.NotFoundHandler())},
		Loops:   []Loop{func(context.Context) {}},
		Closers: []func() error{func() error { closed.Add(1); return nil }},
	}, time.Second)
	if err := waitDone(t, done, 10*time.Second); err != nil {
		t.Fatalf("run returned %v", err)
	}
	if closed.Load() != 1 {
		t.Errorf("the closer ran %d times", closed.Load())
	}
}

// TestRunStopsOnSIGTERM: SIGTERM stops Run cleanly, with a nil error.
func TestRunStopsOnSIGTERM(t *testing.T) {
	srv := bound(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	var closed atomic.Bool
	done := make(chan error, 1)
	go func() {
		done <- Run(context.Background(), Process{
			Servers: []*Server{srv},
			Closers: []func() error{func() error { closed.Store(true); return nil }},
		})
	}()
	// Run watches for the signal before it serves: once a request is
	// answered, SIGTERM is its.
	resp, err := http.Get("http://" + srv.BoundAddr())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := waitDone(t, done, 10*time.Second); err != nil {
		t.Fatalf("Run returned %v after SIGTERM", err)
	}
	if !closed.Load() {
		t.Error("the closer did not run")
	}
}

// TestGracefulStopKeepsAckedWAL is the graceful-stop leg of the WAL crash
// harness: the Prometheus role with a WAL and remote write on, behind Run,
// stopped while pushes stream in. Reopened, the WAL holds every sample of
// every push that was answered 2xx, and replay repairs no torn tail.
func TestGracefulStopKeepsAckedWAL(t *testing.T) {
	cfg := config.Default()
	cfg.TSDB.WALDir, cfg.Thanos.Dir = t.TempDir(), t.TempDir()
	cfg.TSDB.RemoteWrite = true
	prom, err := cluster.NewPrometheus(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := bound(t, prom.Handler.Mux())
	var closed atomic.Int32
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- Run(ctx, Process{
			Servers: []*Server{srv},
			Closers: []func() error{func() error { closed.Add(1); return prom.Close() }},
		})
	}()

	// Each client streams pushes of frames written a few ms apart, so a
	// stop finds requests in flight. A push is one series of its own.
	const clients, frames, perFrame = 4, 8, 5
	var (
		mu    sync.Mutex
		acked []string // the req label of every push answered 2xx
	)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; ; r++ {
				req := fmt.Sprintf("%d-%d", c, r)
				if !push(srv.BoundAddr(), req, frames, perFrame) {
					return
				}
				mu.Lock()
				acked = append(acked, req)
				mu.Unlock()
			}
		}()
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 2*clients {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d pushes acked in 30 s", n)
		}
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(DrainTimeout + 10*time.Second):
		t.Fatal("Run did not return after the stop")
	}
	wg.Wait()
	if closed.Load() != 1 {
		t.Fatalf("the role's Close ran %d times", closed.Load())
	}

	// The role's Close released the directory, or this open would fail.
	db, err := tsdb.Open(tsdb.Options{WALDir: cfg.TSDB.WALDir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ws, _ := db.WALStats()
	if ws.Replay.TornRepairs != 0 {
		t.Errorf("replay after a graceful stop repaired %d torn tails", ws.Replay.TornRepairs)
	}
	t.Logf("%d pushes acked; replay: %d samples in %d series", len(acked), ws.Replay.Samples, ws.Replay.Series)
	for _, req := range acked {
		got, err := db.Select(0, 1<<62, labels.MustMatcher(labels.MatchEqual, "req", req))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || len(got[0].Samples) != frames*perFrame {
			n := 0
			for _, s := range got {
				n += len(s.Samples)
			}
			t.Errorf("acked push %s: %d of its %d samples after reopen", req, n, frames*perFrame)
		}
	}
}

// push streams one remote-write request of frames×perFrame samples of the
// series graceful_stop{req=req}, a frame every few ms, and reports whether
// it was answered 2xx.
func push(addr, req string, frames, perFrame int) bool {
	pr, pw := io.Pipe()
	go func() {
		enc := remotewrite.NewEncoder(pw, false)
		ls := labels.FromStrings(labels.MetricName, "graceful_stop", "req", req)
		for f := range frames {
			fam := &expofmt.Family{Name: "graceful_stop", Type: expofmt.TypeGauge}
			for i := range perFrame {
				k := f*perFrame + i
				fam.Metrics = append(fam.Metrics, expofmt.Metric{Labels: ls, Value: float64(k), TS: int64(1000 * (k + 1))})
			}
			if err := enc.WriteBatch([]*expofmt.Family{fam}); err != nil {
				pw.CloseWithError(err)
				return
			}
			time.Sleep(3 * time.Millisecond)
		}
		pw.Close()
	}()
	resp, err := http.Post("http://"+addr+"/api/v1/write", "application/octet-stream", pr)
	pr.Close()
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode/100 == 2
}
