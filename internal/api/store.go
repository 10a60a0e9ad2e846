// Package api implements the CEEMS API server (paper §II.B.b): it
// periodically fetches compute units from the resource managers, estimates
// their aggregate metrics by querying the TSDB, stores everything in a
// relational DB under a unified schema, serves the REST API Grafana and
// the load balancer consume, and cleans up TSDB series of short-lived
// units to bound cardinality.
package api

import (
	"encoding/json"

	"repro/internal/model"
	"repro/internal/relstore"
)

// Table names of the unified schema.
const (
	TableUnits    = "units"
	TableUsers    = "users"
	TableProjects = "projects"
	TableAdmins   = "admin_users"
	tableMeta     = "meta" // key "fetch_from": the next pass's fetch bound, ms
)

// Schemas returns the unified DB schema for compute units of any resource
// manager plus user/project rollups.
func Schemas() []relstore.Schema {
	return []relstore.Schema{
		{
			Name: TableUnits,
			Columns: []relstore.Column{
				{Name: "uuid", Type: relstore.ColText}, // cluster/manager/id
				{Name: "id", Type: relstore.ColText},
				{Name: "cluster", Type: relstore.ColText},
				{Name: "manager", Type: relstore.ColText},
				{Name: "name", Type: relstore.ColText},
				{Name: "user", Type: relstore.ColText},
				{Name: "project", Type: relstore.ColText},
				{Name: "partition", Type: relstore.ColText},
				{Name: "state", Type: relstore.ColText},
				{Name: "created_at", Type: relstore.ColInt},
				{Name: "started_at", Type: relstore.ColInt},
				{Name: "ended_at", Type: relstore.ColInt},
				{Name: "elapsed_sec", Type: relstore.ColInt},
				{Name: "cpus", Type: relstore.ColInt},
				{Name: "memory_bytes", Type: relstore.ColInt},
				{Name: "gpus", Type: relstore.ColInt},
				{Name: "gpu_ordinals", Type: relstore.ColText}, // JSON array
				{Name: "nodes", Type: relstore.ColText},        // JSON array
				{Name: "exit_code", Type: relstore.ColInt},
				{Name: "avg_cpu_usage", Type: relstore.ColFloat},
				{Name: "avg_cpu_mem_usage", Type: relstore.ColFloat},
				{Name: "avg_gpu_usage", Type: relstore.ColFloat},
				{Name: "cpu_time_sec", Type: relstore.ColFloat},
				{Name: "host_energy_j", Type: relstore.ColFloat},
				{Name: "gpu_energy_j", Type: relstore.ColFloat},
				{Name: "total_energy_j", Type: relstore.ColFloat},
				{Name: "emissions_g", Type: relstore.ColFloat},
				{Name: "num_samples", Type: relstore.ColInt},
				{Name: "accounted_until", Type: relstore.ColInt}, // ms; absent on rows written before it existed
			},
			PrimaryKey: "uuid",
			Indexes:    []string{"user", "project", "cluster", "state", "id"},
		},
		{
			Name: TableUsers,
			Columns: []relstore.Column{
				{Name: "key", Type: relstore.ColText}, // cluster/user
				{Name: "cluster", Type: relstore.ColText},
				{Name: "user", Type: relstore.ColText},
				{Name: "num_units", Type: relstore.ColInt},
				{Name: "cpu_time_sec", Type: relstore.ColFloat},
				{Name: "avg_cpu_usage", Type: relstore.ColFloat},
				{Name: "avg_gpu_usage", Type: relstore.ColFloat},
				{Name: "total_energy_j", Type: relstore.ColFloat},
				{Name: "emissions_g", Type: relstore.ColFloat},
				{Name: "num_samples", Type: relstore.ColInt},
			},
			PrimaryKey: "key",
			Indexes:    []string{"cluster", "user"},
		},
		{
			Name: TableProjects,
			Columns: []relstore.Column{
				{Name: "key", Type: relstore.ColText}, // cluster/project
				{Name: "cluster", Type: relstore.ColText},
				{Name: "project", Type: relstore.ColText},
				{Name: "num_units", Type: relstore.ColInt},
				{Name: "cpu_time_sec", Type: relstore.ColFloat},
				{Name: "total_energy_j", Type: relstore.ColFloat},
				{Name: "emissions_g", Type: relstore.ColFloat},
				{Name: "num_samples", Type: relstore.ColInt},
			},
			PrimaryKey: "key",
			Indexes:    []string{"cluster", "project"},
		},
		{
			Name: TableAdmins,
			Columns: []relstore.Column{
				{Name: "user", Type: relstore.ColText},
			},
			PrimaryKey: "user",
		},
		{Name: tableMeta, PrimaryKey: "key", Columns: []relstore.Column{
			{Name: "key", Type: relstore.ColText}, {Name: "value", Type: relstore.ColInt}}},
	}
}

// unitToRow converts a compute unit to its DB row.
func unitToRow(u model.Unit) relstore.Row {
	ords, _ := json.Marshal(u.GPUOrdinals)
	nodes, _ := json.Marshal(u.Nodes)
	return relstore.Row{
		"uuid": u.UUID, "id": u.ID, "cluster": u.Cluster,
		"manager": string(u.Manager), "name": u.Name,
		"user": u.User, "project": u.Project, "partition": u.Partition,
		"state": string(u.State), "created_at": u.CreatedAt,
		"started_at": u.StartedAt, "ended_at": u.EndedAt,
		"elapsed_sec": u.ElapsedSec, "cpus": int64(u.CPUs),
		"memory_bytes": u.MemoryBytes, "gpus": int64(u.GPUs),
		"gpu_ordinals": string(ords), "nodes": string(nodes),
		"exit_code":         int64(u.ExitCode),
		"avg_cpu_usage":     u.Aggregate.AvgCPUUsage,
		"avg_cpu_mem_usage": u.Aggregate.AvgCPUMemUsage,
		"avg_gpu_usage":     u.Aggregate.AvgGPUUsage,
		"cpu_time_sec":      u.Aggregate.CPUTimeSec,
		"host_energy_j":     u.Aggregate.HostEnergyJoules,
		"gpu_energy_j":      u.Aggregate.GPUEnergyJoules,
		"total_energy_j":    u.Aggregate.TotalEnergyJoules,
		"emissions_g":       u.Aggregate.EmissionsGrams,
		"num_samples":       u.Aggregate.NumSamples,
	}
}

// rowToUnit converts a DB row back to a compute unit.
func rowToUnit(r relstore.Row) model.Unit {
	var ords []int
	var nodes []string
	if s, ok := r["gpu_ordinals"].(string); ok && s != "" {
		json.Unmarshal([]byte(s), &ords)
	}
	if s, ok := r["nodes"].(string); ok && s != "" {
		json.Unmarshal([]byte(s), &nodes)
	}
	return model.Unit{
		UUID:        str(r, "uuid"),
		ID:          str(r, "id"),
		Cluster:     str(r, "cluster"),
		Manager:     model.ResourceManager(str(r, "manager")),
		Name:        str(r, "name"),
		User:        str(r, "user"),
		Project:     str(r, "project"),
		Partition:   str(r, "partition"),
		State:       model.UnitState(str(r, "state")),
		CreatedAt:   i64(r, "created_at"),
		StartedAt:   i64(r, "started_at"),
		EndedAt:     i64(r, "ended_at"),
		ElapsedSec:  i64(r, "elapsed_sec"),
		CPUs:        int(i64(r, "cpus")),
		MemoryBytes: i64(r, "memory_bytes"),
		GPUs:        int(i64(r, "gpus")),
		GPUOrdinals: ords,
		Nodes:       nodes,
		ExitCode:    int(i64(r, "exit_code")),
		Aggregate: model.UsageAggregate{
			AvgCPUUsage:       f64(r, "avg_cpu_usage"),
			AvgCPUMemUsage:    f64(r, "avg_cpu_mem_usage"),
			AvgGPUUsage:       f64(r, "avg_gpu_usage"),
			CPUTimeSec:        f64(r, "cpu_time_sec"),
			HostEnergyJoules:  f64(r, "host_energy_j"),
			GPUEnergyJoules:   f64(r, "gpu_energy_j"),
			TotalEnergyJoules: f64(r, "total_energy_j"),
			EmissionsGrams:    f64(r, "emissions_g"),
			NumSamples:        i64(r, "num_samples"),
		},
	}
}

func str(r relstore.Row, k string) string {
	v, _ := r[k].(string)
	return v
}

func i64(r relstore.Row, k string) int64 {
	v, _ := r[k].(int64)
	return v
}

func f64(r relstore.Row, k string) float64 {
	v, _ := r[k].(float64)
	return v
}

// rollupKey is a users or projects row's primary key: cluster/name.
func rollupKey(cluster, name string) string { return cluster + "/" + name }
