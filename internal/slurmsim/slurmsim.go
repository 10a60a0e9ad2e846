// Package slurmsim simulates the SLURM batch scheduler substrate: job
// submission, FIFO scheduling with backfill over partitioned nodes, cgroup
// accounting via the hw node simulator, and a slurmdbd-like job-accounting
// API the CEEMS API server polls ("CEEMS API server fetches the job data
// from SLURM DBD periodically", paper §II.C).
package slurmsim

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/hw"
	"repro/internal/model"
)

// Partition groups nodes under a scheduling queue, as on Jean-Zay
// (cpu_p1, gpu_p13, ...).
type Partition struct {
	Name  string
	Nodes []*hw.Node
}

// JobSpec describes a job submission.
type JobSpec struct {
	Name        string
	User        string
	Account     string // SLURM accounting project
	Partition   string
	Nodes       int // number of nodes; 0 means 1
	CPUsPerNode int
	MemPerNode  int64
	GPUsPerNode int
	TimeLimit   time.Duration // walltime limit; exceeded jobs end in timeout
	Duration    time.Duration // actual runtime
	// Utilization profiles forwarded to the hardware simulator.
	CPUUtil func(elapsed time.Duration) float64
	MemUtil func(elapsed time.Duration) float64
	GPUUtil func(elapsed time.Duration) float64
	// ExitCode of the job when it completes normally.
	ExitCode int
}

// Job is a scheduled or finished job.
type Job struct {
	ID   int64
	Spec JobSpec

	State      model.UnitState
	SubmitTime time.Time
	StartTime  time.Time
	EndTime    time.Time
	NodeNames  []string
	// GPUOrdinals per node index; CEEMS must store this map because SLURM
	// does not expose it post-mortem (paper §II.A.d).
	GPUOrdinals map[string][]int
	// Truth aggregates the hardware ground-truth energy after completion.
	Truth hw.WorkloadEnergy
}

// CgroupID returns the cgroup leaf name used on every allocated node.
func (j *Job) CgroupID() string { return fmt.Sprintf("job_%d", j.ID) }

// Scheduler is the simulated SLURM controller. Advance drives simulated
// time; all other methods are safe for concurrent use.
type Scheduler struct {
	Cluster string

	mu         sync.Mutex
	now        time.Time
	partitions map[string]*Partition
	nodeFree   map[string]*nodeCapacity // by node name
	nodeByName map[string]*hw.Node
	nextID     int64
	pending    []*Job
	running    map[int64]*Job
	finished   []*Job
	// finishedByID provides O(1) lookups for the DBD API.
	finishedByID map[int64]*Job
}

type nodeCapacity struct {
	cpusFree int
	memFree  int64
	gpusFree []bool // per ordinal
}

// NewScheduler creates a scheduler over the given partitions.
func NewScheduler(cluster string, start time.Time, parts ...*Partition) (*Scheduler, error) {
	s := &Scheduler{
		Cluster:      cluster,
		now:          start,
		partitions:   map[string]*Partition{},
		nodeFree:     map[string]*nodeCapacity{},
		nodeByName:   map[string]*hw.Node{},
		running:      map[int64]*Job{},
		finishedByID: map[int64]*Job{},
	}
	for _, p := range parts {
		if _, dup := s.partitions[p.Name]; dup {
			return nil, fmt.Errorf("slurmsim: duplicate partition %q", p.Name)
		}
		s.partitions[p.Name] = p
		for _, n := range p.Nodes {
			name := n.Spec.Name
			if _, dup := s.nodeByName[name]; dup {
				return nil, fmt.Errorf("slurmsim: duplicate node %q", name)
			}
			s.nodeByName[name] = n
			s.nodeFree[name] = &nodeCapacity{
				cpusFree: n.Spec.TotalCPUs(),
				memFree:  n.Spec.MemBytes,
				gpusFree: make([]bool, len(n.Spec.GPUs)),
			}
			for i := range s.nodeFree[name].gpusFree {
				s.nodeFree[name].gpusFree[i] = true
			}
		}
	}
	return s, nil
}

// Now returns the simulated time.
func (s *Scheduler) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Node returns a node by name.
func (s *Scheduler) Node(name string) (*hw.Node, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodeByName[name]
	return n, ok
}

// Nodes returns all nodes sorted by name.
func (s *Scheduler) Nodes() []*hw.Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.nodeByName))
	for n := range s.nodeByName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*hw.Node, len(names))
	for i, n := range names {
		out[i] = s.nodeByName[n]
	}
	return out
}

// Submit queues a job, returning it with an assigned ID.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.partitions[spec.Partition]
	if !ok {
		return nil, fmt.Errorf("slurmsim: unknown partition %q", spec.Partition)
	}
	if spec.Nodes <= 0 {
		spec.Nodes = 1
	}
	if spec.CPUsPerNode <= 0 {
		return nil, fmt.Errorf("slurmsim: job must request CPUs")
	}
	// Reject jobs that can never fit.
	fits := 0
	for _, n := range p.Nodes {
		if spec.CPUsPerNode <= n.Spec.TotalCPUs() &&
			spec.MemPerNode <= n.Spec.MemBytes &&
			spec.GPUsPerNode <= len(n.Spec.GPUs) {
			fits++
		}
	}
	if fits < spec.Nodes {
		return nil, fmt.Errorf("slurmsim: request exceeds partition %q capacity", spec.Partition)
	}
	s.nextID++
	j := &Job{
		ID: s.nextID, Spec: spec,
		State: model.UnitPending, SubmitTime: s.now,
		GPUOrdinals: map[string][]int{},
	}
	s.pending = append(s.pending, j)
	return j, nil
}

// Advance moves simulated time forward by dt: nodes advance, finished jobs
// are reaped, and pending jobs are scheduled (FIFO with backfill — a later
// job may start if an earlier one cannot).
func (s *Scheduler) Advance(dt time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = s.now.Add(dt)

	// Advance hardware first so ground truth includes this step.
	for _, n := range s.nodeByName {
		n.Advance(dt)
	}

	// Reap jobs whose runtime (or time limit) elapsed.
	for id, j := range s.running {
		elapsed := s.now.Sub(j.StartTime)
		limit := j.Spec.Duration
		timedOut := false
		if j.Spec.TimeLimit > 0 && j.Spec.TimeLimit < limit {
			limit = j.Spec.TimeLimit
			timedOut = true
		}
		if elapsed < limit {
			continue
		}
		for _, nodeName := range j.NodeNames {
			node := s.nodeByName[nodeName]
			te := node.RemoveWorkload(j.CgroupID())
			j.Truth.HostJoules += te.HostJoules
			j.Truth.GPUJoules += te.GPUJoules
			j.Truth.CPUSeconds += te.CPUSeconds
			cap := s.nodeFree[nodeName]
			cap.cpusFree += j.Spec.CPUsPerNode
			cap.memFree += j.Spec.MemPerNode
			for _, ord := range j.GPUOrdinals[nodeName] {
				cap.gpusFree[ord] = true
			}
		}
		j.EndTime = s.now
		switch {
		case timedOut:
			j.State = model.UnitTimeout
		case j.Spec.ExitCode != 0:
			j.State = model.UnitFailed
		default:
			j.State = model.UnitCompleted
		}
		delete(s.running, id)
		s.finished = append(s.finished, j)
		s.finishedByID[j.ID] = j
	}

	// Schedule pending jobs (FIFO with backfill).
	var stillPending []*Job
	started := map[string]bool{}
	for _, j := range s.pending {
		if s.tryStartLocked(j) {
			for _, nn := range j.NodeNames {
				started[nn] = true
			}
			continue
		}
		stillPending = append(stillPending, j)
	}
	s.pending = stillPending
	// Materialize cgroup trees of freshly-started jobs so exporters see
	// them on this tick.
	for nn := range started {
		s.nodeByName[nn].FlushFiles()
	}
}

// tryStartLocked attempts to place the job now. Caller holds s.mu.
func (s *Scheduler) tryStartLocked(j *Job) bool {
	p := s.partitions[j.Spec.Partition]
	var chosen []string
	for _, n := range p.Nodes {
		cap := s.nodeFree[n.Spec.Name]
		if cap.cpusFree < j.Spec.CPUsPerNode || cap.memFree < j.Spec.MemPerNode {
			continue
		}
		free := 0
		for _, f := range cap.gpusFree {
			if f {
				free++
			}
		}
		if free < j.Spec.GPUsPerNode {
			continue
		}
		chosen = append(chosen, n.Spec.Name)
		if len(chosen) == j.Spec.Nodes {
			break
		}
	}
	if len(chosen) < j.Spec.Nodes {
		return false
	}
	for _, nodeName := range chosen {
		cap := s.nodeFree[nodeName]
		cap.cpusFree -= j.Spec.CPUsPerNode
		cap.memFree -= j.Spec.MemPerNode
		var ords []int
		for ord, f := range cap.gpusFree {
			if f && len(ords) < j.Spec.GPUsPerNode {
				cap.gpusFree[ord] = false
				ords = append(ords, ord)
			}
		}
		j.GPUOrdinals[nodeName] = ords
		node := s.nodeByName[nodeName]
		w := &hw.Workload{
			ID:          j.CgroupID(),
			CPUs:        j.Spec.CPUsPerNode,
			MemLimit:    j.Spec.MemPerNode,
			GPUOrdinals: ords,
			CPUUtil:     j.Spec.CPUUtil,
			MemUtil:     j.Spec.MemUtil,
			GPUUtil:     j.Spec.GPUUtil,
		}
		if err := node.AddWorkload(w); err != nil {
			// Capacity bookkeeping guarantees this cannot happen; a panic
			// here means the invariant broke.
			panic(fmt.Sprintf("slurmsim: placement invariant violated: %v", err))
		}
	}
	j.NodeNames = chosen
	j.StartTime = s.now
	j.State = model.UnitRunning
	s.running[j.ID] = j
	return true
}

// GPUBindingsOnNode returns, for running jobs on the node, the map of
// manager-native job ID to bound GPU ordinals — the information the CEEMS
// exporter publishes as ceems_compute_unit_gpu_index_flag.
func (s *Scheduler) GPUBindingsOnNode(nodeName string) map[string][]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string][]int{}
	for _, j := range s.running {
		ords, ok := j.GPUOrdinals[nodeName]
		if !ok || len(ords) == 0 {
			continue
		}
		out[strconv.FormatInt(j.ID, 10)] = append([]int(nil), ords...)
	}
	return out
}

// Stats summarizes scheduler state.
type Stats struct {
	Pending, Running, Finished int
}

// Stats returns current queue counts.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Pending: len(s.pending), Running: len(s.running), Finished: len(s.finished)}
}

// JobsSince returns all jobs that were running at or after the cutoff,
// plus everything still pending/running — the shape of a slurmdbd
// accounting query window.
func (s *Scheduler) JobsSince(cutoff time.Time) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Job
	for _, j := range s.pending {
		out = append(out, j)
	}
	for _, j := range s.running {
		out = append(out, j)
	}
	for _, j := range s.finished {
		if !j.EndTime.Before(cutoff) {
			out = append(out, j)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Units converts jobs to the unified compute-unit schema.
func (s *Scheduler) Units(cutoff time.Time) []model.Unit {
	jobs := s.JobsSince(cutoff)
	now := s.Now()
	out := make([]model.Unit, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, jobToUnit(s.Cluster, j, now))
	}
	return out
}

func jobToUnit(cluster string, j *Job, now time.Time) model.Unit {
	id := strconv.FormatInt(j.ID, 10)
	u := model.Unit{
		UUID:        model.UnitUUID(cluster, model.ManagerSLURM, id),
		ID:          id,
		Cluster:     cluster,
		Manager:     model.ManagerSLURM,
		Name:        j.Spec.Name,
		User:        j.Spec.User,
		Project:     j.Spec.Account,
		Partition:   j.Spec.Partition,
		State:       j.State,
		CreatedAt:   j.SubmitTime.UnixMilli(),
		CPUs:        j.Spec.CPUsPerNode * max(j.Spec.Nodes, 1),
		MemoryBytes: j.Spec.MemPerNode * int64(max(j.Spec.Nodes, 1)),
		GPUs:        j.Spec.GPUsPerNode * max(j.Spec.Nodes, 1),
		Nodes:       j.NodeNames,
		ExitCode:    j.Spec.ExitCode,
	}
	for _, node := range j.NodeNames {
		u.GPUOrdinals = append(u.GPUOrdinals, j.GPUOrdinals[node]...)
	}
	if !j.StartTime.IsZero() {
		u.StartedAt = j.StartTime.UnixMilli()
		end := now
		if !j.EndTime.IsZero() {
			end = j.EndTime
			u.EndedAt = j.EndTime.UnixMilli()
		}
		u.ElapsedSec = int64(end.Sub(j.StartTime).Seconds())
	}
	return u
}

// DBDHandler serves the slurmdbd-like REST API:
//
//	GET /slurmdbd/v1/jobs?since=<unix_ms>  → JSON array of units
//	GET /slurmdbd/v1/stats                 → queue counts
func (s *Scheduler) DBDHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/slurmdbd/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		cutoff := time.Unix(0, 0)
		if v := r.URL.Query().Get("since"); v != "" {
			ms, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				http.Error(w, "bad since parameter", http.StatusBadRequest)
				return
			}
			cutoff = time.UnixMilli(ms)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.Units(cutoff))
	})
	mux.HandleFunc("/slurmdbd/v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.Stats())
	})
	return mux
}
