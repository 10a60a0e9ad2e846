// Command ceems_lb runs the CEEMS load balancer: a reverse proxy over one
// or more Prometheus/Thanos backends that enforces per-compute-unit access
// control by introspecting queries and verifying ownership against the
// CEEMS API server.
//
// Usage:
//
//	ceems_lb -listen :9091 -backends http://tsdb-a:9090,http://tsdb-b:9090 \
//	    -api-server http://ceems-api:9200 -strategy least-connection
//	ceems_lb -config ceems.yaml    # the file's lb section, R and W from its ring section
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"time"

	"repro/internal/config"
	"repro/internal/lb"
	"repro/internal/telemetry"
)

func main() {
	cfg, err := config.ForCommand("ceems_lb", flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	if len(cfg.LB.Backends) == 0 {
		log.Fatal("-backends required")
	}

	reg := telemetry.NewRegistry()
	telemetry.RegisterProcess(reg)
	balancer := &lb.LB{Strategy: lb.Strategy(cfg.LB.Strategy), QueryTimeout: cfg.LB.QueryTimeout}
	if cfg.Ring.ReplicationFactor > 0 && cfg.Ring.WriteQuorum > 0 {
		balancer.ProxyRetries = cfg.Ring.ReplicationFactor - cfg.Ring.WriteQuorum
	}
	for _, raw := range cfg.LB.Backends {
		b, err := lb.NewBackend(raw)
		if err != nil {
			log.Fatalf("backend: %v", err)
		}
		balancer.Backends = append(balancer.Backends, b)
	}
	if cfg.LB.APIServer != "" {
		balancer.Checker = &lb.HTTPChecker{BaseURL: cfg.LB.APIServer}
	} else {
		log.Print("warning: running WITHOUT access control (-api-server empty)")
	}
	// After Backends: the per-backend bridges close over the final list.
	balancer.InstrumentTelemetry(reg)
	go func() {
		tick := time.NewTicker(cfg.LB.HealthInterval)
		defer tick.Stop()
		for range tick.C {
			// A pass ends by the next tick: a backend that has not
			// answered by then is down.
			ctx, cancel := context.WithTimeout(context.Background(), cfg.LB.HealthInterval)
			balancer.HealthCheck(ctx)
			cancel()
		}
	}()

	log.Printf("ceems_lb: %d backends, strategy %s, failover budget %d, serving %s",
		len(balancer.Backends), cfg.LB.Strategy, balancer.ProxyRetries, cfg.LB.Listen)
	log.Fatal(http.ListenAndServe(cfg.LB.Listen, balancer))
}
