package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb"
)

// backfillSpec sizes the synthetic history the long-range workload reads:
// per instance a RAPL package and a DRAM energy counter, the IPMI power
// gauge and the recorded node power, at one sample a minute.
type backfillSpec struct {
	days      int
	instances int
	// sliceDays is how much history goes into the head before each ship.
	sliceDays int
}

const backfillCadence = time.Minute

func (b backfillSpec) instance(i int) string { return fmt.Sprintf("hist-intel-%04d", i) }
func (b backfillSpec) series() int           { return 4 * b.instances }

// backfiller generates RAPL-shaped data: energy counters grow by power ×
// cadence, power carries 5–10 % sensor noise around a per-node base, and
// turbo and throttle transients lift or cut it for a few minutes at a time.
type backfiller struct {
	spec  backfillSpec
	rng   *rand.Rand
	nodes []histNode
	lsets [][4]labels.Labels
	next  time.Time // timestamp of the next sample
}

type histNode struct {
	baseW, noise   float64
	pkgJ, dramJ    float64
	transient      float64 // power multiplier while a transient lasts
	transientLeft  int     // samples
	lastW, lastPkg float64
}

func newBackfiller(spec backfillSpec, seed int64, from time.Time) *backfiller {
	bf := &backfiller{spec: spec, rng: rand.New(rand.NewSource(seed)), next: from}
	for i := 0; i < spec.instances; i++ {
		bf.nodes = append(bf.nodes, histNode{
			baseW: 180 + 140*bf.rng.Float64(),
			noise: 0.05 + 0.05*bf.rng.Float64(),
		})
		base := []string{"instance", spec.instance(i), "job", "ceems", "nodeclass", "intel", "cluster", clusterName}
		name := func(n string) labels.Labels {
			return labels.FromStrings(append([]string{labels.MetricName, n}, base...)...)
		}
		bf.lsets = append(bf.lsets, [4]labels.Labels{
			name("ceems_rapl_package_joules_total"), name("ceems_rapl_dram_joules_total"),
			name("ceems_ipmi_dcmi_current_watts"), name("instance:node_watts:intel"),
		})
	}
	return bf
}

// appendSlice appends the next `samples` points of every series to the head
// and returns how many samples that was.
func (bf *backfiller) appendSlice(db *tsdb.DB, samples int) (int, error) {
	dt := backfillCadence.Seconds()
	total := 0
	for i := range bf.nodes {
		n := &bf.nodes[i]
		var out [4][]model.Sample
		for k := range out {
			out[k] = make([]model.Sample, samples)
		}
		for j := 0; j < samples; j++ {
			if n.transientLeft == 0 && bf.rng.Float64() < 0.004 {
				n.transient = 1.35 // turbo
				if bf.rng.Intn(2) == 0 {
					n.transient = 0.6 // thermal throttle
				}
				n.transientLeft = 3 + bf.rng.Intn(12)
			}
			mult := 1.0
			if n.transientLeft > 0 {
				mult = n.transient
				n.transientLeft--
			}
			pkgW := n.baseW * mult * (1 + n.noise*bf.rng.NormFloat64())
			if pkgW < 20 {
				pkgW = 20
			}
			dramW := 0.18 * n.baseW * (1 + n.noise*bf.rng.NormFloat64())
			n.pkgJ += pkgW * dt
			n.dramJ += dramW * dt
			ipmiW := (pkgW+dramW)/0.92 + 60
			t := bf.next.Add(time.Duration(j) * backfillCadence).UnixMilli()
			out[0][j] = model.Sample{T: t, V: n.pkgJ}
			out[1][j] = model.Sample{T: t, V: n.dramJ}
			out[2][j] = model.Sample{T: t, V: ipmiW}
			out[3][j] = model.Sample{T: t, V: 0.9 * ipmiW}
		}
		for k := range out {
			if err := db.AppendSeries(bf.lsets[i][k], out[k]); err != nil {
				return total, err
			}
			total += samples
		}
	}
	bf.next = bf.next.Add(time.Duration(samples) * backfillCadence)
	return total, nil
}
