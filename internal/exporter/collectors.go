package exporter

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/expofmt"
	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/sysfs"
)

// CgroupLayout describes where a resource manager puts workload cgroups and
// how to recover the compute-unit ID from a directory name. CEEMS is
// manager-agnostic precisely because only this layout differs between
// SLURM, libvirt and kubelet (paper §II.A.a).
type CgroupLayout struct {
	// Root is the directory whose children are workload cgroups.
	Root string
	// Pattern extracts the unit ID as capture group 1 from a child name.
	Pattern *regexp.Regexp
	// Manager labels the emitted metrics.
	Manager model.ResourceManager
}

// SlurmLayout matches cgroups v2 slurmstepd job directories.
func SlurmLayout() CgroupLayout {
	return CgroupLayout{
		Root:    "/sys/fs/cgroup/system.slice/slurmstepd.scope",
		Pattern: regexp.MustCompile(`^job_(\d+)$`),
		Manager: model.ManagerSLURM,
	}
}

// LibvirtLayout matches machine.slice qemu VM scopes.
func LibvirtLayout() CgroupLayout {
	return CgroupLayout{
		Root:    "/sys/fs/cgroup/machine.slice",
		Pattern: regexp.MustCompile(`^machine-qemu-(.+)\.scope$`),
		Manager: model.ManagerOpenstack,
	}
}

// K8sLayout matches kubepods pod slices.
func K8sLayout() CgroupLayout {
	return CgroupLayout{
		Root:    "/sys/fs/cgroup/kubepods.slice",
		Pattern: regexp.MustCompile(`^kubepods-pod(.+)\.slice$`),
		Manager: model.ManagerK8s,
	}
}

// CgroupCollector walks the cgroup tree and emits per-compute-unit CPU and
// memory accounting. What a directory name implies — whether it is a
// workload cgroup, its label set, its file paths — is worked out once and
// kept for as long as the directory is listed; FS and Layout must not
// change after the first Collect.
type CgroupCollector struct {
	FS     sysfs.FS
	Layout CgroupLayout

	mu    sync.Mutex
	units map[string]*cgroupUnit // by directory name; nil: not a workload cgroup
}

type cgroupUnit struct {
	ls                          labels.Labels
	cpuStat, memCurrent, memMax string
}

// Name implements Collector.
func (c *CgroupCollector) Name() string { return "cgroup" }

// Collect reads every workload cgroup under the layout root.
func (c *CgroupCollector) Collect() ([]*expofmt.Family, error) {
	cpuTotal := &expofmt.Family{
		Name: "ceems_compute_unit_cpu_usage_seconds_total", Type: expofmt.TypeCounter,
		Help: "Total CPU time of the compute unit (from cgroup cpu.stat).",
	}
	cpuUser := &expofmt.Family{
		Name: "ceems_compute_unit_cpu_user_seconds_total", Type: expofmt.TypeCounter,
		Help: "User-mode CPU time of the compute unit.",
	}
	memUsed := &expofmt.Family{
		Name: "ceems_compute_unit_memory_used_bytes", Type: expofmt.TypeGauge,
		Help: "Resident memory of the compute unit (cgroup memory.current).",
	}
	memLimit := &expofmt.Family{
		Name: "ceems_compute_unit_memory_limit_bytes", Type: expofmt.TypeGauge,
		Help: "Memory limit of the compute unit (cgroup memory.max).",
	}
	units := &expofmt.Family{
		Name: "ceems_compute_units", Type: expofmt.TypeGauge,
		Help: "Number of compute units on the node.",
	}

	names, err := c.FS.ReadDir(c.Layout.Root)
	if err != nil {
		// No cgroup root means no workloads have run yet; that is healthy.
		units.Metrics = []expofmt.Metric{{Value: 0}}
		return []*expofmt.Family{cpuTotal, cpuUser, memUsed, memLimit, units}, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.units == nil {
		c.units = map[string]*cgroupUnit{}
	}
	count := 0
	for _, name := range names {
		u, known := c.units[name]
		if !known {
			if m := c.Layout.Pattern.FindStringSubmatch(name); m != nil {
				dir := c.Layout.Root + "/" + name
				u = &cgroupUnit{
					ls:      labels.FromStrings("uuid", m[1], "manager", string(c.Layout.Manager)),
					cpuStat: dir + "/cpu.stat", memCurrent: dir + "/memory.current", memMax: dir + "/memory.max",
				}
			}
			c.units[name] = u
		}
		if u == nil {
			continue
		}
		kv, err := sysfs.ReadKVFile(c.FS, u.cpuStat)
		if err == nil {
			cpuTotal.Metrics = append(cpuTotal.Metrics, expofmt.Metric{
				Labels: u.ls, Value: float64(kv["usage_usec"]) / 1e6})
			cpuUser.Metrics = append(cpuUser.Metrics, expofmt.Metric{
				Labels: u.ls, Value: float64(kv["user_usec"]) / 1e6})
		}
		if v, err := sysfs.ReadUint64(c.FS, u.memCurrent); err == nil {
			memUsed.Metrics = append(memUsed.Metrics, expofmt.Metric{Labels: u.ls, Value: float64(v)})
		}
		if v, err := sysfs.ReadUint64(c.FS, u.memMax); err == nil {
			memLimit.Metrics = append(memLimit.Metrics, expofmt.Metric{Labels: u.ls, Value: float64(v)})
		}
		count++
	}
	// Forget directories that are gone (ReadDir lists sorted), so the memo
	// is bounded by the jobs on the node, not by the jobs it ever ran.
	if len(c.units) > len(names) {
		for name := range c.units {
			if i := sort.SearchStrings(names, name); i == len(names) || names[i] != name {
				delete(c.units, name)
			}
		}
	}
	units.Metrics = []expofmt.Metric{{Value: float64(count)}}
	return []*expofmt.Family{cpuTotal, cpuUser, memUsed, memLimit, units}, nil
}

// RAPLCollector reads the powercap energy counters. Zones are discovered
// once — they are fixed by the hardware — and from then on a scrape reads
// only each zone's energy_uj.
type RAPLCollector struct {
	FS sysfs.FS

	mu    sync.Mutex
	zones []raplZone
}

type raplZone struct {
	dram     bool
	ls       labels.Labels
	energyUJ string // path
}

// Name implements Collector.
func (c *RAPLCollector) Name() string { return "rapl" }

// discover walks /sys/class/powercap for package and dram domains.
func (c *RAPLCollector) discover() ([]raplZone, error) {
	root := "/sys/class/powercap"
	names, err := c.FS.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("rapl: %w", err)
	}
	var zones []raplZone
	for _, name := range names {
		if !strings.HasPrefix(name, "intel-rapl:") || strings.Count(name, ":") != 1 {
			continue
		}
		base := root + "/" + name
		idx := strings.TrimPrefix(name, "intel-rapl:")
		zones = append(zones, raplZone{ls: labels.FromStrings("index", idx, "path", name), energyUJ: base + "/energy_uj"})
		// Sub-domains (dram).
		subs, err := c.FS.ReadDir(base)
		if err != nil {
			continue
		}
		for _, sub := range subs {
			if !strings.HasPrefix(sub, "intel-rapl:") {
				continue
			}
			nameData, err := c.FS.ReadFile(base + "/" + sub + "/name")
			if err != nil || strings.TrimSpace(string(nameData)) != "dram" {
				continue
			}
			zones = append(zones, raplZone{dram: true,
				ls: labels.FromStrings("index", idx, "path", sub), energyUJ: base + "/" + sub + "/energy_uj"})
		}
	}
	return zones, nil
}

// Collect reads the energy counter of every zone.
func (c *RAPLCollector) Collect() ([]*expofmt.Family, error) {
	pkg := &expofmt.Family{
		Name: "ceems_rapl_package_joules_total", Type: expofmt.TypeCounter,
		Help: "RAPL package domain energy counter in joules.",
	}
	dram := &expofmt.Family{
		Name: "ceems_rapl_dram_joules_total", Type: expofmt.TypeCounter,
		Help: "RAPL dram domain energy counter in joules.",
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.zones) == 0 { // finding nothing is not remembered
		var err error
		if c.zones, err = c.discover(); err != nil {
			return nil, err
		}
	}
	for _, z := range c.zones {
		uj, err := sysfs.ReadUint64(c.FS, z.energyUJ)
		if err != nil {
			continue
		}
		fam := pkg
		if z.dram {
			fam = dram
		}
		fam.Metrics = append(fam.Metrics, expofmt.Metric{Labels: z.ls, Value: float64(uj) / 1e6})
	}
	return []*expofmt.Family{pkg, dram}, nil
}

// IPMIReader abstracts the IPMI-DCMI power reading command; *hw.Node
// implements it in simulation, and a real deployment would shell out to
// `ipmitool dcmi power reading`.
type IPMIReader interface {
	PowerReading() (float64, error)
}

// IPMICollector emits the BMC's node-level power reading.
type IPMICollector struct {
	Reader IPMIReader
}

// Name implements Collector.
func (c *IPMICollector) Name() string { return "ipmi" }

// Collect reads the current DCMI power value.
func (c *IPMICollector) Collect() ([]*expofmt.Family, error) {
	w, err := c.Reader.PowerReading()
	if err != nil {
		return nil, fmt.Errorf("ipmi: %w", err)
	}
	return []*expofmt.Family{{
		Name: "ceems_ipmi_dcmi_current_watts", Type: expofmt.TypeGauge,
		Help:    "Node power reported by IPMI-DCMI.",
		Metrics: []expofmt.Metric{{Value: w}},
	}}, nil
}

// NodeCollector emits node-level CPU and memory metrics from /proc.
type NodeCollector struct {
	FS sysfs.FS

	mu        sync.Mutex
	memFields map[string]labels.Labels // {field="<key>"} by /proc/meminfo key
}

// cpuModes are the first five columns of /proc/stat's cpu line.
var cpuModes = [...]labels.Labels{
	labels.FromStrings("mode", "user"), labels.FromStrings("mode", "nice"), labels.FromStrings("mode", "system"),
	labels.FromStrings("mode", "idle"), labels.FromStrings("mode", "iowait"),
}

// Name implements Collector.
func (c *NodeCollector) Name() string { return "node" }

// Collect parses /proc/stat and /proc/meminfo.
func (c *NodeCollector) Collect() ([]*expofmt.Family, error) {
	out := make([]*expofmt.Family, 0, 3)
	data, err := c.FS.ReadFile("/proc/stat")
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	cpu := &expofmt.Family{
		Name: "ceems_cpu_seconds_total", Type: expofmt.TypeCounter,
		Help: "Node CPU time by mode, in seconds (from /proc/stat).",
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 5 || fields[0] != "cpu" {
			continue
		}
		for i, mode := range cpuModes {
			if i+1 >= len(fields) {
				break
			}
			j, _ := strconv.ParseUint(fields[i+1], 10, 64)
			cpu.Metrics = append(cpu.Metrics, expofmt.Metric{
				Labels: mode,
				Value:  float64(j) / 100, // jiffies at USER_HZ=100
			})
		}
	}
	out = append(out, cpu)

	if data, err := c.FS.ReadFile("/proc/meminfo"); err == nil {
		mem := &expofmt.Family{
			Name: "ceems_meminfo_bytes", Type: expofmt.TypeGauge,
			Help: "Node memory by field (from /proc/meminfo).",
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, line := range strings.Split(string(data), "\n") {
			fields := strings.Fields(line)
			if len(fields) < 2 {
				continue
			}
			key := strings.TrimSuffix(fields[0], ":")
			ls, ok := c.memFields[key]
			if !ok {
				if c.memFields == nil {
					c.memFields = map[string]labels.Labels{}
				}
				ls = labels.FromStrings("field", key)
				c.memFields[key] = ls
			}
			kb, _ := strconv.ParseUint(fields[1], 10, 64)
			mem.Metrics = append(mem.Metrics, expofmt.Metric{Labels: ls, Value: float64(kb) * 1024})
		}
		out = append(out, mem)
	}
	return out, nil
}

// GPUOrdinalProvider supplies the compute-unit→GPU binding of the node.
// The SLURM simulator's scheduler knows it; on a real system the exporter
// recovers it from the job environment. CEEMS must export it because the
// binding is not available post-mortem (paper §II.A.d).
type GPUOrdinalProvider interface {
	// GPUOrdinalsByUnit returns unit ID → GPU (ordinal, device UUID) pairs.
	GPUOrdinalsByUnit() map[string][]GPUBinding
}

// GPUBinding is one unit→device edge.
type GPUBinding struct {
	Ordinal int
	UUID    string
}

// GPUMapCollector exports the compute-unit→GPU index map.
type GPUMapCollector struct {
	Provider GPUOrdinalProvider
	Manager  model.ResourceManager
}

// Name implements Collector.
func (c *GPUMapCollector) Name() string { return "gpumap" }

// Collect emits one flag metric per unit↔GPU binding.
func (c *GPUMapCollector) Collect() ([]*expofmt.Family, error) {
	fam := &expofmt.Family{
		Name: "ceems_compute_unit_gpu_index_flag", Type: expofmt.TypeGauge,
		Help: "1 for each GPU ordinal bound to the compute unit.",
	}
	for uuid, binds := range c.Provider.GPUOrdinalsByUnit() {
		for _, b := range binds {
			fam.Metrics = append(fam.Metrics, expofmt.Metric{
				Labels: labels.FromStrings(
					"uuid", uuid,
					"index", fmt.Sprintf("%d", b.Ordinal),
					"gpuuuid", b.UUID,
					"manager", string(c.Manager),
				),
				Value: 1,
			})
		}
	}
	return []*expofmt.Family{fam}, nil
}
