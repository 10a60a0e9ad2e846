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
	"os"
	"time"

	"repro/internal/config"
	"repro/internal/lb"
	"repro/internal/serve"
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
	srv := &serve.Server{Name: "lb", Addr: cfg.LB.Listen}
	if err := serve.Bind(srv); err != nil {
		log.Fatal(err)
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
	// A health pass ends by the next tick: a backend that has not answered
	// by then is down.
	health := serve.Every(cfg.LB.HealthInterval, func(ctx context.Context, _ time.Time) {
		ctx, cancel := context.WithTimeout(ctx, cfg.LB.HealthInterval)
		balancer.HealthCheck(ctx)
		cancel()
	})
	log.Printf("ceems_lb: %d backends, strategy %s, failover budget %d",
		len(balancer.Backends), cfg.LB.Strategy, balancer.ProxyRetries)
	srv.Handler = balancer
	if err := serve.Run(context.Background(), serve.Process{Servers: []*serve.Server{srv}, Loops: []serve.Loop{health}}); err != nil {
		log.Fatal(err)
	}
}
