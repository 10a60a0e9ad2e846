package exporter

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/expofmt"
	"repro/internal/hw"
	"repro/internal/labels"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/render_golden.txt")

// oracleRender is the exposition writer the exporter rendered through
// before expofmt.AppendFamily: fmt, strings.ReplaceAll and a sort per
// metric, kept here (as in expofmt's own tests) as the byte-identity oracle.
func oracleRender(fams []*expofmt.Family) string {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, f := range fams {
		if f.Help != "" {
			help := strings.ReplaceAll(strings.ReplaceAll(f.Help, `\`, `\\`), "\n", `\n`)
			fmt.Fprintf(w, "# HELP %s %s\n", f.Name, help)
		}
		typ := f.Type
		if typ == "" {
			typ = expofmt.TypeUntyped
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, typ)
		for _, m := range f.Metrics {
			w.WriteString(f.Name)
			var ls labels.Labels
			for _, l := range m.Labels {
				if l.Name != labels.MetricName {
					ls = append(ls, l)
				}
			}
			sort.Sort(ls)
			for i, l := range ls {
				sep := ","
				if i == 0 {
					sep = "{"
				}
				v := strings.ReplaceAll(l.Value, `\`, `\\`)
				v = strings.ReplaceAll(strings.ReplaceAll(v, `"`, `\"`), "\n", `\n`)
				fmt.Fprintf(w, `%s%s="%s"`, sep, l.Name, v)
			}
			if len(ls) > 0 {
				w.WriteByte('}')
			}
			switch v := m.Value; {
			case math.IsNaN(v):
				w.WriteString(" NaN")
			case math.IsInf(v, 1):
				w.WriteString(" +Inf")
			case math.IsInf(v, -1):
				w.WriteString(" -Inf")
			default:
				w.WriteString(" " + strconv.FormatFloat(v, 'g', -1, 64))
			}
			if m.TS != 0 {
				fmt.Fprintf(w, " %d", m.TS)
			}
			w.WriteByte('\n')
		}
	}
	w.Flush()
	return buf.String()
}

// selfTelemetry matches the two values that differ between any two renders:
// the scrape counter and the exporter's own heap.
var selfTelemetry = regexp.MustCompile(`(?m)^(ceems_exporter_scrapes_total|ceems_exporter_memory_bytes) .*$`)

func maskSelfTelemetry(body string) string { return selfTelemetry.ReplaceAllString(body, "$1 X") }

// TestRenderGolden drives a seeded node through 50 ticks of job churn and
// checks, at every tick, that Render() is byte for byte what the oracle
// writer makes of Gather() — the two self-telemetry values aside — and, at
// the end, that the body matches the golden file recorded from the
// renderer this one replaced (-update rewrites it).
func TestRenderGolden(t *testing.T) {
	spec := hw.DefaultIntelSpec("golden-node")
	spec.Seed = 18
	n, err := hw.NewNode(spec, t0)
	if err != nil {
		t.Fatal(err)
	}
	e := New(
		&CgroupCollector{FS: n.FS, Layout: SlurmLayout()},
		&RAPLCollector{FS: n.FS},
		&IPMICollector{Reader: n},
		&NodeCollector{FS: n.FS},
	)
	var last string
	running := map[int]bool{}
	for tick := 0; tick < 50; tick++ {
		// Jobs start every other tick and run for 3–9 ticks, so cgroup
		// directories appear, vanish, and the memoised ones get evicted.
		if tick%2 == 0 {
			id := 7000 + tick
			util := 0.2 + float64(tick%5)/10
			err := n.AddWorkload(&hw.Workload{
				ID: fmt.Sprintf("job_%d", id), CPUs: 2 + tick%6, MemLimit: int64(4+tick%8) << 30,
				CPUUtil: func(time.Duration) float64 { return util },
			})
			if err != nil {
				t.Fatal(err)
			}
			running[id] = true
		}
		for id := range running {
			if tick-(id-7000) >= 3+id%7 {
				n.RemoveWorkload(fmt.Sprintf("job_%d", id))
				delete(running, id)
			}
		}
		n.Advance(15 * time.Second)

		last = maskSelfTelemetry(e.Render())
		if want := maskSelfTelemetry(oracleRender(e.Gather())); last != want {
			t.Fatalf("tick %d: Render differs from the oracle over Gather:\n%s\nwant:\n%s", tick, last, want)
		}
		if !strings.Contains(last, "ceems_compute_unit_memory_used_bytes{") {
			t.Fatalf("tick %d: no compute units in the body; the churn is not exercising the cgroup collector", tick)
		}
	}
	const golden = "testdata/render_golden.txt"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(last), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if last != string(want) {
		t.Errorf("final body differs from %s:\n%s", golden, last)
	}
}

// The collectors' memos and the pooled render buffer are reached by every
// concurrent scrape of one exporter; run under -race.
func TestConcurrentRender(t *testing.T) {
	n := busyNode(t)
	e := New(
		&CgroupCollector{FS: n.FS, Layout: SlurmLayout()},
		&RAPLCollector{FS: n.FS},
		&IPMICollector{Reader: n},
		&NodeCollector{FS: n.FS},
	)
	want := maskSelfTelemetry(e.Render())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := maskSelfTelemetry(e.Render()); got != want {
					t.Errorf("concurrent render differs:\n%s\nwant:\n%s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
