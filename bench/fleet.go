package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/exporter"
	"repro/internal/gpusim"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/slurmsim"
)

// clusterName is the `cluster` target label and the scheduler's cluster id;
// the updater keys unit rows on it.
const clusterName = "jean-zay"

// fleetNode is one simulated compute node with the exporter that serves it.
type fleetNode struct {
	name  string
	class cluster.NodeClass
	exp   *exporter.Exporter
}

// fleet is the simulated platform that produces the stack's inputs: the
// hardware, the scheduler that places jobs on it, the job generator and one
// exporter per node. cluster.New builds the same thing but keeps its
// exporters unexported, so the harness assembles it from hw/slurmsim.
type fleet struct {
	nodes []fleetNode
	sched *slurmsim.Scheduler
	gen   *cluster.WorkloadGen
}

// gpuBindings feeds an exporter's GPU-map collector from the scheduler's
// binding table.
type gpuBindings struct {
	sched *slurmsim.Scheduler
	node  *hw.Node
}

func (p gpuBindings) GPUOrdinalsByUnit() map[string][]exporter.GPUBinding {
	gpus := p.node.GPUs()
	out := map[string][]exporter.GPUBinding{}
	for id, ords := range p.sched.GPUBindingsOnNode(p.node.Spec.Name) {
		for _, ord := range ords {
			uuid := ""
			if ord < len(gpus) {
				uuid = gpus[ord].UUID
			}
			out[id] = append(out[id], exporter.GPUBinding{Ordinal: ord, UUID: uuid})
		}
	}
	return out
}

// newFleet builds the topology's nodes in class order (Intel, AMD, GPU with
// BMC-included power, GPU without), one scheduler partition per class, and
// a job generator seeded from seed.
func newFleet(topo cluster.Topology, seed int64, users, projects int, jobsPerDay float64, start time.Time) (*fleet, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	f := &fleet{}
	counts := map[cluster.NodeClass]int{
		cluster.ClassIntel: topo.IntelNodes, cluster.ClassAMD: topo.AMDNodes,
		cluster.ClassGPUIncluded: topo.GPUIncludedNodes, cluster.ClassGPUExcluded: topo.GPUExcludedNodes,
	}
	gpusPerNode := topo.GPUsPerNode
	if gpusPerNode <= 0 {
		gpusPerNode = 4
	}
	var parts []*slurmsim.Partition
	var cpuParts, gpuParts []string
	hwNodes := map[string]*hw.Node{}
	for _, class := range cluster.Classes() {
		if counts[class] == 0 {
			continue
		}
		part := &slurmsim.Partition{Name: "part-" + string(class)}
		for i := 0; i < counts[class]; i++ {
			name := fmt.Sprintf("%s-%s-%04d", clusterName, class, i)
			var spec hw.NodeSpec
			switch class {
			case cluster.ClassIntel:
				spec = hw.DefaultIntelSpec(name)
			case cluster.ClassAMD:
				spec = hw.DefaultAMDSpec(name)
			default:
				kinds := make([]model.GPUKind, gpusPerNode)
				for k := range kinds {
					kinds[k] = topo.GPUKinds[i%len(topo.GPUKinds)]
				}
				spec = hw.DefaultGPUSpec(name, class == cluster.ClassGPUIncluded, kinds...)
			}
			spec.Seed = seed + int64(len(f.nodes))*7919
			n, err := hw.NewNode(spec, start)
			if err != nil {
				return nil, err
			}
			part.Nodes = append(part.Nodes, n)
			hwNodes[name] = n
			f.nodes = append(f.nodes, fleetNode{name: name, class: class})
		}
		parts = append(parts, part)
		if class == cluster.ClassIntel || class == cluster.ClassAMD {
			cpuParts = append(cpuParts, part.Name)
		} else {
			gpuParts = append(gpuParts, part.Name)
		}
	}
	sched, err := slurmsim.NewScheduler(clusterName, start, parts...)
	if err != nil {
		return nil, err
	}
	f.sched = sched
	for i := range f.nodes {
		n := hwNodes[f.nodes[i].name]
		cols := []exporter.Collector{
			&exporter.CgroupCollector{FS: n.FS, Layout: exporter.SlurmLayout()},
			&exporter.RAPLCollector{FS: n.FS},
			&exporter.IPMICollector{Reader: n},
			&exporter.NodeCollector{FS: n.FS},
		}
		if len(n.Spec.GPUs) > 0 {
			cols = append(cols,
				&gpusim.DCGMCollector{Hostname: n.Spec.Name, Devices: n},
				&exporter.GPUMapCollector{Provider: gpuBindings{sched, n}, Manager: model.ManagerSLURM})
		}
		f.nodes[i].exp = exporter.New(cols...)
	}
	f.gen = cluster.NewWorkloadGen(seed, users, projects, jobsPerDay, cpuParts, gpuParts)
	return f, nil
}

// step advances the platform by dt: submit the interval's jobs, then move
// hardware and scheduler forward.
func (f *fleet) step(dt time.Duration) {
	f.gen.Tick(f.sched, dt)
	f.sched.Advance(dt)
}

func isGPUClass(c cluster.NodeClass) bool {
	return c == cluster.ClassGPUIncluded || c == cluster.ClassGPUExcluded
}
