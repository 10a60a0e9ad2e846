// Command ceems_api_server runs the CEEMS API server standalone: it polls
// a slurmdbd endpoint for compute units, aggregates their metrics by PromQL
// queries to a Prometheus query API, stores everything in its relational
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
	"errors"
	"flag"
	"log"
	"os"

	"repro/internal/api"
	"repro/internal/config"
	"repro/internal/promapi"
	"repro/internal/resourcemanager"
	serveproc "repro/internal/serve"
)

func main() {
	cfg, err := config.ForCommand("ceems_api_server", flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	if err := serve(context.Background(), cfg); err != nil {
		log.Fatal(err)
	}
}

// serve binds the listener before it opens the role, so a taken port fails
// start-up before the store is touched. It runs the accounting and backup
// loop and the REST API until ctx is done, a signal stops the process or
// serving fails; then the store is closed.
func serve(ctx context.Context, cfg config.Config) error {
	if cfg.APIServer.SlurmDBD == "" || cfg.APIServer.Prometheus == "" {
		return errors.New("-slurmdbd and -prometheus are required")
	}
	srv := &serveproc.Server{Name: "CEEMS API", Addr: cfg.APIServer.Listen}
	if err := serveproc.Bind(srv); err != nil {
		return err
	}
	role, err := open(cfg)
	if err != nil {
		srv.Close()
		return err
	}
	srv.Handler = role.Server.Handler()
	log.Printf("ceems_api_server: cluster %s, slurmdbd %s, prometheus %s",
		cfg.Cluster.Name, cfg.APIServer.SlurmDBD, cfg.APIServer.Prometheus)
	return serveproc.Run(ctx, serveproc.Process{
		Servers: []*serveproc.Server{srv},
		Loops: []serveproc.Loop{func(ctx context.Context) {
			api.RunPeriodic(ctx, role.Updater, cfg.APIServer.UpdateInterval, role.Backup, cfg.APIServer.BackupInterval)
		}},
		Closers: []func() error{role.Close},
	})
}

// open builds the standalone role: units from slurmdbd, metrics from the
// query API, and no Cleaner. A standalone server has no TSDB of its own to
// delete short units' series from, so api_server.short_unit_cutoff is inert.
func open(cfg config.Config) (*api.Role, error) {
	return api.Open(cfg, nil, &promapi.Client{BaseURL: cfg.APIServer.Prometheus}, nil,
		&resourcemanager.SlurmDBD{Cluster: cfg.Cluster.Name, BaseURL: cfg.APIServer.SlurmDBD})
}
