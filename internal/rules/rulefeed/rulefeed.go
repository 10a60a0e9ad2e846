// Package rulefeed synthesises the exporter series the CEEMS rule groups
// read — RAPL, IPMI, node CPU and memory, per-unit cgroup usage, DCGM and
// the unit→GPU map — for a fleet of instances spread over the four node
// classes. Tests and benchmarks of rule evaluation feed a head with it:
// cheaper than driving hw.Node and the exporter per instance, and the jobs
// can be ended and restarted at will.
package rulefeed

import (
	"fmt"

	"repro/internal/labels"
	"repro/internal/model"
)

// Classes are the nodeclass label values of ceemsrules.AllGroups, assigned
// to instances round-robin.
var Classes = []string{"intel", "amd", "gpuexc", "gpuinc"}

const gpusPerNode = 2

// Fleet is a set of simulated instances and the jobs running on them.
type Fleet struct {
	nodes  []node
	factor labels.Labels
	ended  []labels.Labels // series of jobs ended since the last Scrape
}

type node struct {
	idx    int
	gpu    bool
	base   labels.Labels // instance, nodeclass
	series []labels.Labels
	jobs   map[string][]labels.Labels // uuid → its series
}

// New returns a fleet of the given size with jobsPerInstance jobs running
// on every instance, named "<instance>-j<k>".
func New(instances, jobsPerInstance int) *Fleet {
	f := &Fleet{factor: labels.FromStrings(labels.MetricName, "ceems_emission_factor_gco2_kwh", "zone", "FR")}
	for i := 0; i < instances; i++ {
		class := Classes[i%len(Classes)]
		n := node{
			idx: i, gpu: class == "gpuexc" || class == "gpuinc",
			base: labels.FromStrings("instance", fmt.Sprintf("n%04d", i), "nodeclass", class),
			jobs: map[string][]labels.Labels{},
		}
		n.add("ceems_rapl_package_joules_total", "index", "0")
		n.add("ceems_rapl_dram_joules_total", "index", "0")
		for _, mode := range []string{"user", "system", "idle"} {
			n.add("ceems_cpu_seconds_total", "mode", mode)
		}
		n.add("ceems_meminfo_bytes", "field", "MemTotal")
		n.add("ceems_meminfo_bytes", "field", "MemAvailable")
		n.add("ceems_ipmi_dcmi_current_watts")
		n.add("ceems_compute_units")
		if n.gpu {
			for g := 0; g < gpusPerNode; g++ {
				n.add("DCGM_FI_DEV_POWER_USAGE", "gpu", fmt.Sprint(g))
				n.add("DCGM_FI_DEV_GPU_UTIL", "gpu", fmt.Sprint(g))
			}
		}
		f.nodes = append(f.nodes, n)
		for j := 0; j < jobsPerInstance; j++ {
			f.StartJob(i, fmt.Sprintf("n%04d-j%d", i, j))
		}
	}
	return f
}

func (n *node) with(name string, extra ...string) labels.Labels {
	b := labels.NewBuilder(n.base).Set(labels.MetricName, name)
	for i := 0; i+1 < len(extra); i += 2 {
		b.Set(extra[i], extra[i+1])
	}
	return b.Labels()
}

func (n *node) add(name string, extra ...string) {
	n.series = append(n.series, n.with(name, extra...))
}

// Instances returns the fleet size.
func (f *Fleet) Instances() int { return len(f.nodes) }

// StartJob starts a job on an instance; on GPU classes it is bound to one
// device. Restarting an ended uuid brings its series back.
func (f *Fleet) StartJob(instance int, uuid string) {
	n := &f.nodes[instance]
	ss := []labels.Labels{
		n.with("ceems_compute_unit_cpu_usage_seconds_total", "uuid", uuid),
		n.with("ceems_compute_unit_memory_used_bytes", "uuid", uuid),
	}
	if n.gpu {
		ss = append(ss, n.with("ceems_compute_unit_gpu_index_flag", "uuid", uuid, "index", fmt.Sprint(len(n.jobs)%gpusPerNode)))
	}
	n.jobs[uuid] = ss
}

// EndJob ends a job: the next Scrape writes a staleness marker for each of
// its series, as a scrape that no longer sees them does, and nothing after.
func (f *Fleet) EndJob(instance int, uuid string) {
	n := &f.nodes[instance]
	f.ended = append(f.ended, n.jobs[uuid]...)
	delete(n.jobs, uuid)
}

// Scrape hands add one sample per live series at time ts (ms). Counters
// grow with ts, gauges wobble with it; every value is a pure function of
// the series and ts, so two heads fed the same calls hold the same bits.
func (f *Fleet) Scrape(ts int64, add func(ls labels.Labels, t int64, v float64)) {
	sec := float64(ts) / 1000
	add(f.factor, ts, 50+float64(ts/60000%7))
	for _, ls := range f.ended {
		add(ls, ts, model.StaleNaN())
	}
	f.ended = f.ended[:0]
	for i := range f.nodes {
		n := &f.nodes[i]
		k := float64(n.idx%13 + 1)
		wobble := float64((ts/15000 + int64(n.idx)) % 5)
		for _, ls := range n.series {
			var v float64
			switch ls.Get(labels.MetricName) {
			case "ceems_rapl_package_joules_total":
				v = sec * (150 + k)
			case "ceems_rapl_dram_joules_total":
				v = sec * (20 + k)
			case "ceems_cpu_seconds_total":
				v = sec * (4 + k/4)
			case "ceems_meminfo_bytes":
				v = 256e9
				if ls.Get("field") == "MemAvailable" {
					v = 128e9 + wobble*1e9
				}
			case "ceems_ipmi_dcmi_current_watts":
				v = 400 + 10*k + wobble
			case "ceems_compute_units":
				v = float64(len(n.jobs))
			case "DCGM_FI_DEV_POWER_USAGE":
				v = 200 + k + wobble
			case "DCGM_FI_DEV_GPU_UTIL":
				v = 40 + 10*wobble
			}
			add(ls, ts, v)
		}
		for uuid, ss := range n.jobs {
			u := float64(uuid[len(uuid)-1]%3 + 1)
			add(ss[0], ts, sec*u/2)
			add(ss[1], ts, (4+u+wobble)*1e9)
			if n.gpu {
				add(ss[2], ts, 1)
			}
		}
	}
}
