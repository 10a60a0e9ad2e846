// Multi-manager example: the "resource manager agnostic" claim in action.
// One CEEMS API server ingests compute units from three different resource
// managers — SLURM batch jobs, Openstack VMs and Kubernetes pods — into the
// same unified schema, and the same cgroup collector code reads all three
// cgroup layouts.
//
//	go run ./examples/multimanager
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/api"
	"repro/internal/config"
	"repro/internal/hw"
	"repro/internal/k8ssim"
	"repro/internal/model"
	"repro/internal/openstacksim"
	"repro/internal/relstore"
	"repro/internal/resourcemanager"
	"repro/internal/slurmsim"
	"repro/internal/tsdb"
)

func main() {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	mkNode := func(name string) *hw.Node {
		n, err := hw.NewNode(hw.DefaultIntelSpec(name), start)
		if err != nil {
			log.Fatal(err)
		}
		return n
	}

	// Three clusters under three managers.
	slurm, err := slurmsim.NewScheduler("hpc", start,
		&slurmsim.Partition{Name: "cpu", Nodes: []*hw.Node{mkNode("hpc-n1")}})
	if err != nil {
		log.Fatal(err)
	}
	cloud := openstacksim.NewManager("cloud", start, mkNode("cloud-hv1"))
	k8s := k8ssim.NewManager("k8s", start, mkNode("k8s-w1"))

	// Workloads on each.
	slurm.Submit(slurmsim.JobSpec{
		Name: "mpi-solve", User: "alice", Account: "physics", Partition: "cpu",
		CPUsPerNode: 32, MemPerNode: 64 << 30, Duration: time.Hour,
	})
	cloud.Boot(openstacksim.VMSpec{
		Name: "web-frontend", User: "bob", Project: "webshop", VCPUs: 8, MemBytes: 16 << 30,
	})
	k8s.Run(k8ssim.PodSpec{
		Name: "trainer", Namespace: "ml", User: "carol", CPURequest: 16, MemBytes: 32 << 30,
	})

	// Advance all three for 10 minutes.
	for i := 0; i < 40; i++ {
		slurm.Advance(15 * time.Second)
		cloud.Advance(15 * time.Second)
		k8s.Advance(15 * time.Second)
	}

	// One API server, three fetchers — the unified schema. No metrics are
	// needed for the schema demo, so the TSDB stays empty.
	role, err := api.Open(config.Default(), nil, api.InProcess(tsdb.MustOpen(tsdb.DefaultOptions())), nil,
		&resourcemanager.Local{Cluster: "hpc", Kind: model.ManagerSLURM, Source: slurm},
		&resourcemanager.Local{Cluster: "cloud", Kind: model.ManagerOpenstack, Source: cloud},
		&resourcemanager.Local{Cluster: "k8s", Kind: model.ManagerK8s, Source: k8s},
	)
	if err != nil {
		log.Fatal(err)
	}
	defer role.Close()
	if err := role.Updater.Update(context.Background(), start.Add(10*time.Minute)); err != nil {
		log.Fatal(err)
	}

	rows, _ := role.Store.Select(api.TableUnits, relstore.Query{})
	fmt.Println("one unified compute-unit table across three resource managers:")
	fmt.Printf("%-22s %-10s %-8s %-8s %-10s %6s %9s\n",
		"UUID", "MANAGER", "USER", "PROJECT", "STATE", "CPUS", "ELAPSED")
	for _, r := range rows {
		fmt.Printf("%-22v %-10v %-8v %-8v %-10v %6v %8vs\n",
			r["uuid"], r["manager"], r["user"], r["project"], r["state"],
			r["cpus"], r["elapsed_sec"])
	}

	// The same collector code walks all three cgroup layouts.
	fmt.Println("\ncgroup layouts the exporter's one collector handles:")
	for _, c := range []struct{ mgr, path string }{
		{"slurm", "/sys/fs/cgroup/system.slice/slurmstepd.scope/job_<id>"},
		{"openstack", "/sys/fs/cgroup/machine.slice/machine-qemu-<id>.scope"},
		{"k8s", "/sys/fs/cgroup/kubepods.slice/kubepods-pod<uid>.slice"},
	} {
		fmt.Printf("  %-10s %s\n", c.mgr, c.path)
	}
}
