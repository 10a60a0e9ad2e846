package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/relstore"
)

// TestStandaloneAssembly: the role ceems_api_server builds accounts the
// units of a slurmdbd endpoint from a Prometheus query API by instant queries.
// One pass over 30 simulated minutes of a two-node cluster gives every unit
// that started 5 min before it some energy; the admins are registered; the
// backup step writes a copy that restores every unit; and backup_dir
// without data_dir is refused.
func TestStandaloneAssembly(t *testing.T) {
	ctx := context.Background()
	cfg := config.Default()
	cfg.Cluster.Name = "standalone"
	cfg.Sim.JobsPerDay = 2000
	sim, err := cluster.New(cluster.Topology{Name: cfg.Cluster.Name, IntelNodes: 1, AMDNodes: 1, Seed: 3}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunFor(ctx, 30*time.Minute)
	dbd := httptest.NewServer(sim.Sched.DBDHandler())
	defer dbd.Close()
	prom := httptest.NewServer(sim.Handler.Mux())
	defer prom.Close()

	cfg.APIServer.SlurmDBD, cfg.APIServer.Prometheus = dbd.URL, prom.URL
	cfg.APIServer.DataDir, cfg.APIServer.BackupDir = t.TempDir(), t.TempDir()
	cfg.APIServer.AdminUsers = []string{"root", "ops"}
	role, err := open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer role.Close()
	now := sim.Now()
	if err := role.Updater.Update(ctx, now); err != nil {
		t.Fatal(err)
	}
	units, err := role.Store.Select(api.TableUnits, relstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	settled := 0
	for _, u := range units {
		if started, _ := u["started_at"].(int64); started == 0 || started > now.Add(-5*time.Minute).UnixMilli() {
			continue
		}
		settled++
		if e, _ := u["total_energy_j"].(float64); e <= 0 {
			t.Errorf("unit %v: %v J after the pass", u["uuid"], e)
		}
	}
	t.Logf("%d units stored, %d started 5 min before the pass", len(units), settled)
	if settled == 0 {
		t.Fatal("no unit started 5 min before the pass")
	}
	for user, want := range map[string]bool{"root": true, "ops": true, "alice": false} {
		if got := role.Server.IsAdmin(user); got != want {
			t.Errorf("IsAdmin(%q) = %v, want %v", user, got, want)
		}
	}

	if err := role.Backup(); err != nil {
		t.Fatal(err)
	}
	restored, err := relstore.Restore(cfg.APIServer.BackupDir, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if n, err := restored.Count(api.TableUnits); err != nil || n != len(units) {
		t.Errorf("the backup restores %d units (%v), want %d", n, err, len(units))
	}

	cfg.APIServer.DataDir = ""
	if r, err := open(cfg); err == nil {
		r.Close()
		t.Error("backup_dir without data_dir opened")
	}
}

// standaloneConfig is a ceems_api_server configuration on a loopback
// listener, over a store in a fresh directory that does not exist yet.
func standaloneConfig(t *testing.T, listen string) config.Config {
	cfg := config.Default()
	cfg.APIServer.Listen = listen
	cfg.APIServer.SlurmDBD, cfg.APIServer.Prometheus = "http://127.0.0.1:1", "http://127.0.0.1:1"
	cfg.APIServer.DataDir = filepath.Join(t.TempDir(), "db")
	cfg.APIServer.AdminUsers = []string{"root"}
	return cfg
}

// TestServeBindsBeforeStore: a listen address that is taken fails start-up
// before the store directory is created.
func TestServeBindsBeforeStore(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	cfg := standaloneConfig(t, taken.Addr().String())
	if err := serve(context.Background(), cfg); err == nil {
		t.Fatal("serve on a taken address returned nil")
	}
	if _, err := os.Stat(cfg.APIServer.DataDir); !os.IsNotExist(err) {
		t.Errorf("the store directory was touched: %v", err)
	}
}

// TestServeEndsOnCancel: serve answers the REST API until its context is
// cancelled, then returns nil with what it stored on disk.
func TestServeEndsOnCancel(t *testing.T) {
	free, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := free.Addr().String()
	free.Close()
	cfg := standaloneConfig(t, addr)
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve(ctx, cfg) }()

	var resp *http.Response
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if resp, err = http.Get("http://" + addr + "/api/v1/health"); err == nil || time.Now().After(deadline) {
			break
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("health answered %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v after cancel", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve still running 10 s after cancel")
	}
	db, err := relstore.Open(cfg.APIServer.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n, err := db.Count(api.TableAdmins); err != nil || n != 1 {
		t.Errorf("reopened store holds %d admins (%v), want 1", n, err)
	}
}
