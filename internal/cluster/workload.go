package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/slurmsim"
)

// WorkloadGen submits synthetic jobs with realistic structure: Poisson
// arrivals calibrated to a jobs/day rate (the paper reports ~20k/day on
// Jean-Zay), log-normal durations (many short jobs, a long tail), a user
// and project population, and phase-shaped utilization profiles.
type WorkloadGen struct {
	Users      int
	Projects   int
	JobsPerDay float64
	// GPUJobFraction of submissions targets GPU partitions.
	GPUJobFraction float64
	// MedianDuration of jobs; the log-normal tail stretches well past it.
	MedianDuration time.Duration

	rng       *rand.Rand
	partCPU   []string
	partGPU   []string
	Submitted int
	Rejected  int
}

// NewWorkloadGen builds a generator over the scheduler's partitions.
func NewWorkloadGen(seed int64, users, projects int, jobsPerDay float64, cpuPartitions, gpuPartitions []string) *WorkloadGen {
	return &WorkloadGen{
		Users: users, Projects: projects, JobsPerDay: jobsPerDay,
		GPUJobFraction: 0.35, MedianDuration: 20 * time.Minute,
		rng: rand.New(rand.NewSource(seed)), partCPU: cpuPartitions, partGPU: gpuPartitions,
	}
}

// Tick submits the Poisson draw of jobs for a dt-long interval.
func (g *WorkloadGen) Tick(sched *slurmsim.Scheduler, dt time.Duration) int {
	rate := g.JobsPerDay / (24 * 3600) * dt.Seconds()
	n := g.poisson(rate)
	for i := 0; i < n; i++ {
		if _, err := sched.Submit(g.jobSpec()); err != nil {
			g.Rejected++
			continue
		}
		g.Submitted++
	}
	return n
}

// poisson draws from Poisson(lambda) by inversion (lambda is small per
// tick, so this stays cheap).
func (g *WorkloadGen) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= g.rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 { // guard against pathological lambda
			return k
		}
	}
}

// jobSpec draws one synthetic job.
func (g *WorkloadGen) jobSpec() slurmsim.JobSpec {
	user := fmt.Sprintf("user%02d", g.rng.Intn(max(g.Users, 1)))
	project := fmt.Sprintf("proj%02d", g.rng.Intn(max(g.Projects, 1)))
	// Log-normal duration around the median, clamped to [30s, 24h].
	d := time.Duration(float64(g.MedianDuration) * math.Exp(g.rng.NormFloat64()*0.9))
	if d < 30*time.Second {
		d = 30 * time.Second
	}
	if d > 24*time.Hour {
		d = 24 * time.Hour
	}
	gpu := len(g.partGPU) > 0 && g.rng.Float64() < g.GPUJobFraction
	spec := slurmsim.JobSpec{
		Name:     fmt.Sprintf("job-%s", user),
		User:     user,
		Account:  project,
		Duration: d,
	}
	baseCPU := 0.35 + 0.6*g.rng.Float64()
	baseMem := 0.2 + 0.6*g.rng.Float64()
	// Phase profile: ramp-up for the first 2 minutes, then steady with a
	// small sinusoidal wobble (iterative solvers breathe).
	phase := g.rng.Float64() * 2 * math.Pi
	spec.CPUUtil = func(elapsed time.Duration) float64 {
		ramp := math.Min(1, elapsed.Seconds()/120)
		return clamp01(baseCPU * ramp * (1 + 0.1*math.Sin(elapsed.Seconds()/300+phase)))
	}
	spec.MemUtil = func(elapsed time.Duration) float64 {
		ramp := math.Min(1, elapsed.Seconds()/300)
		return clamp01(baseMem * ramp)
	}
	if gpu {
		spec.Partition = g.partGPU[g.rng.Intn(len(g.partGPU))]
		spec.CPUsPerNode = 4 + 4*g.rng.Intn(3)
		spec.MemPerNode = int64(32+32*g.rng.Intn(4)) << 30
		spec.GPUsPerNode = 1 << g.rng.Intn(3) // 1, 2 or 4
		gutil := 0.5 + 0.5*g.rng.Float64()
		spec.GPUUtil = func(elapsed time.Duration) float64 {
			ramp := math.Min(1, elapsed.Seconds()/60)
			return clamp01(gutil * ramp)
		}
	} else {
		spec.Partition = g.partCPU[g.rng.Intn(len(g.partCPU))]
		spec.CPUsPerNode = 4 << g.rng.Intn(4) // 4..32
		spec.MemPerNode = int64(8<<g.rng.Intn(4)) << 30
	}
	return spec
}

func clamp01(v float64) float64 { return math.Max(0, math.Min(1, v)) }
