// Package model holds the shared data types of the CEEMS stack: metric
// samples, compute units (the resource-manager-agnostic abstraction over
// batch jobs, VMs and pods), usage aggregates and time helpers.
//
// Timestamps are Unix milliseconds throughout, as in Prometheus.
package model

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/labels"
)

// Sample is one (timestamp, value) point of a series.
type Sample struct {
	T int64   // Unix milliseconds
	V float64 // sample value
}

// staleNaN is the Prometheus staleness sentinel: a NaN with a fixed
// payload, appended when a previously-present series disappears from a
// scrape or rule evaluation so queries stop returning it immediately
// instead of after the lookback window.
var staleNaN = math.Float64frombits(0x7ff0000000000002)

// StaleNaN returns the staleness marker value.
func StaleNaN() float64 { return staleNaN }

// IsStaleNaN reports whether v is the staleness marker (and not an
// ordinary NaN).
func IsStaleNaN(v float64) bool {
	return math.Float64bits(v) == 0x7ff0000000000002
}

// Series is a labelled stream of samples, sorted by timestamp.
type Series struct {
	Labels  labels.Labels
	Samples []Sample
}

// SelectHints carries per-query context to hint-aware storage so a Select
// can do less work: the time bounds it will actually be read at, the query
// resolution step, and a sample budget the storage may enforce mid-pass
// instead of copying everything and letting the engine discard it.
//
// With Lookback set a read may also drop the samples no step can see
// (StepFilter; docs/ARCHITECTURE.md §7, "What a read may drop"). The reader
// then evaluates at exactly the times t = End − k·Step, k ≥ 0, that lie in
// its range — at End alone when Step is 0 — and a matrix selector (Range >
// 0) sees the samples in (t − Range, t], a bare selector the newest sample in
// [t − Lookback, t]. Storage returns at least the samples those windows see
// and only samples of [Start, End]; a sample returned is never one the
// untrimmed read would not return, so a trimmed read never exceeds a budget
// the untrimmed read stays within.
type SelectHints struct {
	// Start and End are the inclusive sample-time bounds, Unix ms.
	Start, End int64
	// Step is the query resolution step in ms; 0 for instant queries.
	Step int64
	// Lookback, when > 0, opts the read in to trimming to its step grid and
	// is the lookback window, in ms, of a bare selector's steps. Readers that
	// do not evaluate on an exact millisecond grid leave it 0.
	Lookback int64
	// SampleLimit bounds the total samples the Select may return; <= 0
	// means unlimited. Storage that enforces it returns ErrSampleLimit
	// (possibly wrapped) as soon as the budget is exceeded.
	SampleLimit int64
	// Func is the PromQL function consuming the selector ("" for a bare
	// selector). Downsampling-aware storage uses it to decide whether a
	// pre-aggregated stream (sum/count/min/max per resolution bucket) can
	// substitute for raw samples; counter functions like rate force raw.
	Func string
	// Range is the matrix selector's window in ms (0 for instant
	// selectors). Storage must not serve data sparser than the window, or
	// steps would see empty windows between points.
	Range int64
}

// ErrSampleLimit is returned by hint-aware Selects when a query's sample
// budget is exhausted mid-pass.
var ErrSampleLimit = errors.New("storage: query sample limit exceeded")

// ErrQuorumUnavailable is returned by a replicated read when some owner
// group had fewer answering replicas than the read quorum requires; the
// merged answer could silently miss acked writes, so the read fails
// instead.
type ErrQuorumUnavailable struct {
	Group     []string // the owner set missing coverage
	Need, Got int
}

func (e *ErrQuorumUnavailable) Error() string {
	return fmt.Sprintf("storage: read quorum unavailable: owner group %v answered %d/%d (need %d)",
		e.Group, e.Got, len(e.Group), e.Need)
}

// TimeToMillis converts a time.Time to Unix milliseconds.
func TimeToMillis(t time.Time) int64 { return t.UnixNano() / int64(time.Millisecond) }

// MillisToTime converts Unix milliseconds to time.Time (UTC).
func MillisToTime(ms int64) time.Time { return time.Unix(ms/1000, (ms%1000)*1e6).UTC() }

// DurationMillis converts a duration to milliseconds.
func DurationMillis(d time.Duration) int64 { return int64(d / time.Millisecond) }

// ResourceManager identifies the kind of resource manager a compute unit
// came from.
type ResourceManager string

const (
	ManagerSLURM     ResourceManager = "slurm"
	ManagerOpenstack ResourceManager = "openstack"
	ManagerK8s       ResourceManager = "k8s"
)

// UnitState is the lifecycle state of a compute unit, normalized across
// resource managers (SLURM job states, VM states, pod phases).
type UnitState string

const (
	UnitPending   UnitState = "pending"
	UnitRunning   UnitState = "running"
	UnitCompleted UnitState = "completed"
	UnitFailed    UnitState = "failed"
	UnitCancelled UnitState = "cancelled"
	UnitTimeout   UnitState = "timeout"
)

// Terminated reports whether the state is terminal.
func (s UnitState) Terminated() bool {
	switch s {
	case UnitCompleted, UnitFailed, UnitCancelled, UnitTimeout:
		return true
	}
	return false
}

// Unit is the unified compute-unit record stored by the CEEMS API server.
// It abstracts a SLURM batch job, an Openstack VM or a Kubernetes pod into a
// single schema (paper §II.B.b: "a unified DB schema to store compute units
// of different resource managers").
type Unit struct {
	UUID        string          // globally unique: <cluster>/<manager>/<id>
	ID          string          // manager-native id (job id, VM uuid, pod uid)
	Cluster     string          // cluster identifier
	Manager     ResourceManager // source resource manager
	Name        string          // job name / VM name / pod name
	User        string          // owning user
	Project     string          // accounting project / tenant / namespace
	Partition   string          // partition / flavor class / node pool
	State       UnitState
	CreatedAt   int64 // ms
	StartedAt   int64 // ms; 0 when never started
	EndedAt     int64 // ms; 0 while running
	ElapsedSec  int64 // wall-clock runtime in seconds
	CPUs        int   // allocated logical CPUs
	MemoryBytes int64 // allocated memory
	GPUs        int   // allocated GPU count
	GPUOrdinals []int // node-local GPU indices bound to the unit
	Nodes       []string
	ExitCode    int
	// Aggregated metrics, filled by the API server updater.
	Aggregate UsageAggregate
}

// UsageAggregate holds the aggregated metrics of one compute unit (or the
// running totals of a user/project) as computed from TSDB queries.
type UsageAggregate struct {
	CPUTimeSec        float64 // total CPU seconds consumed
	AvgCPUUsage       float64 // mean CPU utilisation fraction of allocation [0,1]
	AvgCPUMemUsage    float64 // mean memory utilisation fraction of allocation [0,1]
	AvgGPUUsage       float64 // mean GPU utilisation fraction [0,1]
	AvgGPUMemUsage    float64 // mean GPU memory utilisation fraction [0,1]
	HostEnergyJoules  float64 // CPU-side (host) energy attributed to the unit
	GPUEnergyJoules   float64 // GPU energy attributed to the unit
	TotalEnergyJoules float64 // host + GPU
	EmissionsGrams    float64 // gCO2e for TotalEnergyJoules under the factor in effect
	NumSamples        int64   // number of TSDB samples folded in (for weighted updates)
}

// TotalEnergyKWh returns the total energy in kilowatt-hours.
func (u UsageAggregate) TotalEnergyKWh() float64 { return u.TotalEnergyJoules / 3.6e6 }

// Merge folds another aggregate (covering disjoint samples) into u using
// sample-count weighting for the mean fields and summation for totals.
func (u *UsageAggregate) Merge(o UsageAggregate) {
	n, m := float64(u.NumSamples), float64(o.NumSamples)
	if n+m > 0 {
		u.AvgCPUUsage = (u.AvgCPUUsage*n + o.AvgCPUUsage*m) / (n + m)
		u.AvgCPUMemUsage = (u.AvgCPUMemUsage*n + o.AvgCPUMemUsage*m) / (n + m)
		u.AvgGPUUsage = (u.AvgGPUUsage*n + o.AvgGPUUsage*m) / (n + m)
		u.AvgGPUMemUsage = (u.AvgGPUMemUsage*n + o.AvgGPUMemUsage*m) / (n + m)
	}
	u.CPUTimeSec += o.CPUTimeSec
	u.HostEnergyJoules += o.HostEnergyJoules
	u.GPUEnergyJoules += o.GPUEnergyJoules
	u.TotalEnergyJoules += o.TotalEnergyJoules
	u.EmissionsGrams += o.EmissionsGrams
	u.NumSamples += o.NumSamples
}

// UserUsage is the rolled-up usage of one user on one cluster.
type UserUsage struct {
	Cluster   string
	User      string
	NumUnits  int64
	Aggregate UsageAggregate
}

// ProjectUsage is the rolled-up usage of one accounting project.
type ProjectUsage struct {
	Cluster   string
	Project   string
	NumUnits  int64
	Aggregate UsageAggregate
}

// UnitUUID builds the globally unique unit identifier.
func UnitUUID(cluster string, mgr ResourceManager, id string) string {
	return fmt.Sprintf("%s/%s/%s", cluster, mgr, id)
}

// GPUKind enumerates supported accelerator models.
type GPUKind string

const (
	GPUV100  GPUKind = "V100"
	GPUA100  GPUKind = "A100"
	GPUH100  GPUKind = "H100"
	GPUMI250 GPUKind = "MI250" // AMD
)

// Vendor returns the accelerator vendor for the kind.
func (k GPUKind) Vendor() string {
	if k == GPUMI250 {
		return "amd"
	}
	return "nvidia"
}

// MaxPowerWatts returns the board power limit used by the simulator.
func (k GPUKind) MaxPowerWatts() float64 {
	switch k {
	case GPUV100:
		return 300
	case GPUA100:
		return 400
	case GPUH100:
		return 700
	case GPUMI250:
		return 560
	}
	return 250
}

// IdlePowerWatts returns the simulator's idle board power.
func (k GPUKind) IdlePowerWatts() float64 {
	switch k {
	case GPUV100:
		return 35
	case GPUA100:
		return 50
	case GPUH100:
		return 70
	case GPUMI250:
		return 90
	}
	return 30
}

// MemoryBytes returns the device memory size.
func (k GPUKind) MemoryBytes() int64 {
	switch k {
	case GPUV100:
		return 32 << 30
	case GPUA100:
		return 80 << 30
	case GPUH100:
		return 80 << 30
	case GPUMI250:
		return 128 << 30
	}
	return 16 << 30
}
