package tsdb

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
)

// The long-range store's backfill shape: 12 nodes with four series each
// (two energy counters, two power gauges), one sample a minute, cut into
// 2-day blocks.
const (
	maintNodes    = 12
	maintCadence  = int64(60_000)
	maintBlockLen = 2 * 86400_000
)

// maintBlock cuts the 2-day window starting at from into an in-memory raw
// block of the backfill shape.
func maintBlock(tb testing.TB, from int64) *PersistentBlock {
	tb.Helper()
	db := MustOpen(DefaultOptions())
	rng := rand.New(rand.NewSource(from))
	for n := 0; n < maintNodes; n++ {
		base := []string{"instance", fmt.Sprintf("hist-intel-%04d", n), "job", "ceems", "nodeclass", "intel"}
		var pkgJ, dramJ float64
		var series [4][]model.Sample
		for ts := from; ts < from+maintBlockLen; ts += maintCadence {
			w := 180 + 140*rng.Float64()
			pkgJ += w * 60
			dramJ += 0.18 * w * 60
			for k, v := range [4]float64{pkgJ, dramJ, w/0.92 + 60, 0.9 * (w/0.92 + 60)} {
				series[k] = append(series[k], model.Sample{T: ts, V: v})
			}
		}
		for k, name := range []string{"ceems_rapl_package_joules_total", "ceems_rapl_dram_joules_total", "ceems_ipmi_dcmi_current_watts", "instance:node_watts:intel"} {
			if err := db.AppendSeries(labels.FromStrings(append([]string{labels.MetricName, name}, base...)...), series[k]); err != nil {
				tb.Fatal(err)
			}
		}
	}
	pb, err := db.CutPersistentBlock("", from, from+maintBlockLen-1)
	if err != nil {
		tb.Fatal(err)
	}
	return pb
}

// BenchmarkCompact merges three consecutive 2-day raw blocks of 48 series
// into one in-memory block, as the store's compactor does.
func BenchmarkCompact(b *testing.B) {
	b.Run("three_2d_blocks_48_series", func(b *testing.B) {
		if testing.Short() {
			b.Skip("6 days of 48 series skipped in -short mode")
		}
		blocks := []*PersistentBlock{maintBlock(b, 0), maintBlock(b, maintBlockLen), maintBlock(b, 2*maintBlockLen)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nb, err := CompactPersistentBlocks("", blocks, nil)
			if err != nil || nb.meta.Stats.NumSeries != 4*maintNodes {
				b.Fatalf("compacted %v, err %v", nb, err)
			}
		}
	})
}

// BenchmarkDownsample derives the store's two downsampled siblings of one
// 2-day block of 48 series: 5m from raw, 1h from 5m.
func BenchmarkDownsample(b *testing.B) {
	if testing.Short() {
		b.Skip("2 days of 48 series skipped in -short mode")
	}
	raw := maintBlock(b, 0)
	fine, err := downsampleWhole("", raw, 300_000)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		src     *PersistentBlock
		res     int64
		buckets int // per series
	}{
		{"raw_to_5m", raw, 300_000, 576},
		{"5m_to_1h", fine, 3600_000, 48},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nb, err := downsampleWhole("", bc.src, bc.res)
				if err != nil || nb.meta.Stats.NumSamples != 4*4*maintNodes*bc.buckets {
					b.Fatalf("downsampled %v, err %v", nb, err)
				}
			}
		})
	}
}
