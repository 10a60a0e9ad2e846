package api

import (
	"bytes"
	"context"
	"errors"
	"log"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/resourcemanager"
)

// downFetcher is a resource manager that cannot be reached.
type downFetcher struct{}

func (downFetcher) ClusterID() string              { return "down" }
func (downFetcher) Manager() model.ResourceManager { return model.ManagerSLURM }
func (downFetcher) FetchUnits(context.Context, time.Time) ([]model.Unit, error) {
	return nil, errors.New("slurmdbd unreachable")
}

// logSink collects log output written from RunPeriodic's goroutine.
type logSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

func (s *logSink) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// TestRunPeriodicLogsFailures: the first pass runs at start-up, long before
// the first tick of a 1 h interval, and a failed pass and a failed backup
// each reach the log with their error.
func TestRunPeriodicLogsFailures(t *testing.T) {
	var sink logSink
	log.SetOutput(&sink)
	defer log.SetOutput(os.Stderr)
	u := &Updater{Store: unitStore(t, "", Schemas(), nil), Fetchers: []resourcemanager.Fetcher{downFetcher{}}}
	backup := func() error { return errors.New("backup target full") }

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		RunPeriodic(ctx, u, time.Hour, backup, 10*time.Millisecond)
		close(done)
	}()
	want := []string{"api: update pass: api: fetch down: slurmdbd unreachable", "api: backup: backup target full"}
	logged := func() bool {
		for _, w := range want {
			if !strings.Contains(sink.String(), w) {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !logged() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	if !logged() {
		t.Errorf("log within 10 s of start-up:\n%s\nwant lines containing %q", sink.String(), want)
	}
}
