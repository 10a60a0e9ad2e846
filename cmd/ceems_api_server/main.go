// Command ceems_api_server runs the CEEMS API server standalone: it polls
// a slurmdbd endpoint for compute units, aggregates their metrics from a
// Prometheus backend via remote read, stores everything in its relational
// DB (with WAL and optional continuous backup), and serves the REST API.
// A restart resumes the accounting from the store: each unit's row records
// how far it is accounted, so no window is lost or counted twice.
//
// Usage:
//
//	ceems_api_server -listen :9200 -slurmdbd http://dbd:6819 \
//	    -prometheus http://tsdb:9090 -data-dir /var/lib/ceems \
//	    -backup-dir /backup/ceems -admins root,ops
//	ceems_api_server -config ceems.yaml    # api_server, cluster and emissions sections
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"

	"repro/internal/api"
	"repro/internal/config"
	"repro/internal/emissions"
	"repro/internal/promapi"
	"repro/internal/relstore"
	"repro/internal/resourcemanager"
)

func main() {
	cfg, err := config.ForCommand("ceems_api_server", flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	if cfg.APIServer.SlurmDBD == "" || cfg.APIServer.Prometheus == "" {
		log.Fatal("-slurmdbd and -prometheus are required")
	}
	factor, err := emissions.FromConfig(cfg.Emissions, nil)
	if err != nil {
		log.Fatal(err)
	}

	store, err := relstore.Open(cfg.APIServer.DataDir)
	if err != nil {
		log.Fatalf("store: %v", err)
	}
	defer store.Close()
	for _, s := range api.Schemas() {
		if err := store.CreateTable(s); err != nil {
			log.Fatalf("schema: %v", err)
		}
	}
	updater := &api.Updater{
		Store: store,
		Fetchers: []resourcemanager.Fetcher{
			&resourcemanager.SlurmDBD{Cluster: cfg.Cluster.Name, BaseURL: cfg.APIServer.SlurmDBD},
		},
		Query:  &promapi.RemoteQueryable{BaseURL: cfg.APIServer.Prometheus},
		Factor: factor,
		Zone:   cfg.Cluster.Zone,
		// Inert until a Cleaner is wired: a standalone server has no TSDB
		// of its own to delete short units' series from.
		ShortUnitCutoff: cfg.APIServer.ShortUnitCutoff,
	}
	server := &api.Server{Store: store, Updater: updater}
	for _, a := range cfg.APIServer.AdminUsers {
		if err := server.AddAdmin(a); err != nil {
			log.Fatalf("admin %s: %v", a, err)
		}
	}

	var backup func() error
	if cfg.APIServer.BackupDir != "" {
		if cfg.APIServer.DataDir == "" {
			log.Fatal("-backup-dir requires -data-dir")
		}
		rep := &relstore.Replica{DB: store, Dir: cfg.APIServer.BackupDir}
		backup = func() error {
			if err := store.Checkpoint(); err != nil {
				return err
			}
			return rep.Sync()
		}
	}
	go api.RunPeriodic(context.Background(), updater, cfg.APIServer.UpdateInterval, backup, cfg.APIServer.BackupInterval)

	log.Printf("ceems_api_server: cluster %s, slurmdbd %s, prometheus %s, serving %s",
		cfg.Cluster.Name, cfg.APIServer.SlurmDBD, cfg.APIServer.Prometheus, cfg.APIServer.Listen)
	log.Fatal(http.ListenAndServe(cfg.APIServer.Listen, server.Handler()))
}
