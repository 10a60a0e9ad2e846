package ceemsrules

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/rules"
)

// Property: for ANY random workload mix on an Intel node, the Eq. 1
// recording rules conserve node power — Σ uuid:host_watts ≈ IPMI — and
// attribution is ordered by activity (a strictly busier job never gets
// less power). This is the randomized generalization of the deterministic
// reference test.
func TestEq1RulesConservationProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed pipeline property test")
	}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			spec := hw.DefaultIntelSpec("prop")
			spec.NoiseFrac = 0
			env := newSimEnv(t, spec, "intel",
				[]*rules.Group{IntelGroup(DefaultOptions())}, nil)

			nJobs := 1 + rng.Intn(6)
			cpusLeft := spec.TotalCPUs()
			type jobInfo struct {
				id   string
				util float64
				cpus int
			}
			var jobs []jobInfo
			for j := 0; j < nJobs; j++ {
				maxCPU := cpusLeft - (nJobs - j - 1) // leave ≥1 cpu per later job
				if maxCPU < 1 {
					break
				}
				cpus := 1 + rng.Intn(maxCPU)
				cpusLeft -= cpus
				util := 0.05 + 0.9*rng.Float64()
				// Drawn once here, NOT inside the closure: hw.Node.Advance
				// iterates its workload map in randomized order, so a
				// closure pulling from the shared rng per call hands each
				// job different values on every run — the subtest must be a
				// pure function of the seed.
				memUtil := 0.1 + 0.8*rng.Float64()
				id := string(rune('1' + j))
				err := env.node.AddWorkload(&hw.Workload{
					ID: "job_" + id, CPUs: cpus,
					MemLimit: spec.MemBytes / int64(nJobs),
					CPUUtil:  func(time.Duration) float64 { return util },
					MemUtil:  func(time.Duration) float64 { return memUtil },
				})
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, jobInfo{id: id, util: util * float64(cpus)})
			}
			env.run(t, 12)

			hostW := env.lastValue(t, "uuid:host_watts:intel")
			if len(hostW) != len(jobs) {
				t.Fatalf("series = %d, want %d", len(hostW), len(jobs))
			}
			ipmi, _ := env.node.PowerReading()
			var sum float64
			for _, w := range hostW {
				if w < 0 {
					t.Fatalf("negative attribution: %v", hostW)
				}
				sum += w
			}
			if rel(sum, ipmi) > 0.03 {
				t.Errorf("seed %d: conservation broken: sum=%.1f ipmi=%.1f", seed, sum, ipmi)
			}
			// Activity ordering: job with 2x+ the active-cpu rate of
			// another must not receive less power.
			for _, a := range jobs {
				for _, b := range jobs {
					if a.util > 2*b.util && hostW[a.id] < hostW[b.id]*0.95 {
						t.Errorf("seed %d: ordering violated: job %s (%.1f active cpus, %.1f W) vs job %s (%.1f, %.1f W)",
							seed, a.id, a.util, hostW[a.id], b.id, b.util, hostW[b.id])
					}
				}
			}
		})
	}
}

// Job churn through the whole pipeline: a job ends, another starts, the
// first one's uuid comes back. Every uuid:* series of the ended job gets
// exactly one staleness marker — when the rule that records it stops
// producing it, which for the rate-based shares is up to a rate window
// after the cgroup disappears — then nothing until the job is back; a job
// that keeps running never sees a marker.
func TestRulesFollowJobChurn(t *testing.T) {
	spec := hw.DefaultIntelSpec("churn")
	env := newSimEnv(t, spec, "intel", []*rules.Group{IntelGroup(DefaultOptions())}, nil)
	job := func(id string) *hw.Workload {
		return &hw.Workload{
			ID: "job_" + id, CPUs: 8, MemLimit: 32 << 30,
			CPUUtil: func(time.Duration) float64 { return 0.5 },
			MemUtil: func(time.Duration) float64 { return 0.4 },
		}
	}
	minutes := func(n int) {
		for i := 0; i < n; i++ {
			env.run(t, 4) // four scrapes, one evaluation
		}
	}
	env.node.AddWorkload(job("1"))
	env.node.AddWorkload(job("2"))
	minutes(4)
	env.node.RemoveWorkload("job_1")
	ended := env.clock
	minutes(1)
	if err := env.node.AddWorkload(job("3")); err != nil {
		t.Fatal(err)
	}
	minutes(5)
	if err := env.node.AddWorkload(job("1")); err != nil {
		t.Fatal(err)
	}
	returned := env.clock
	minutes(4)

	byUUID := func(uuid string) []model.Series {
		t.Helper()
		got, err := env.db.Select(0, 1<<62,
			labels.MustMatcher(labels.MatchRegexp, labels.MetricName, "uuid:.+"),
			labels.MustMatcher(labels.MatchEqual, "uuid", uuid))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < 5 {
			t.Fatalf("uuid %s: %d recorded series, want every uuid:* rule of the group", uuid, len(got))
		}
		return got
	}
	for _, s := range byUUID("1") {
		markers, first := 0, 0
		for i, smp := range s.Samples {
			if model.IsStaleNaN(smp.V) {
				markers++
				first = i
			}
		}
		if markers != 1 {
			t.Errorf("%s: %d staleness markers, want exactly one", s.Labels, markers)
			continue
		}
		at := model.MillisToTime(s.Samples[first].T)
		if first == 0 || !at.After(ended) || at.After(ended.Add(4*time.Minute)) {
			t.Errorf("%s: marker at %s, want after values and within a rate window of the job's end at %s", s.Labels, at, ended)
		}
		if first+1 >= len(s.Samples) {
			t.Errorf("%s: nothing recorded after the uuid returned", s.Labels)
		} else if next := model.MillisToTime(s.Samples[first+1].T); !next.After(returned) {
			t.Errorf("%s: sample at %s between the marker and the uuid's return at %s", s.Labels, next, returned)
		}
	}
	for _, uuid := range []string{"2", "3"} {
		for _, s := range byUUID(uuid) {
			for _, smp := range s.Samples {
				if model.IsStaleNaN(smp.V) {
					t.Errorf("%s: staleness marker at %d for a job that never ended", s.Labels, smp.T)
				}
			}
		}
	}
}
