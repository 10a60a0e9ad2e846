// Access-control example: the Grafana → CEEMS LB → Prometheus path over
// real HTTP. Two users run jobs; each can query their own job's metrics
// through the load balancer, cross-user queries are rejected, and an admin
// bypasses the check (paper §II.B.c).
//
//	go run ./examples/accesscontrol
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/lb"
	"repro/internal/relstore"
)

func main() {
	topo := cluster.Topology{Name: "secure", IntelNodes: 2, Seed: 5}
	cfg := config.Default()
	cfg.Sim.Users, cfg.Sim.Projects, cfg.Sim.JobsPerDay = 2, 2, 2000
	sim, err := cluster.New(topo, cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	sim.RunFor(ctx, 30*time.Minute)
	if err := sim.FinalizeUpdate(ctx); err != nil {
		log.Fatal(err)
	}
	sim.Server.AddAdmin("operator")

	// The Prometheus role's query API as the backend, the LB in front.
	backendSrv := httptest.NewServer(sim.Handler.Mux())
	defer backendSrv.Close()
	backend, _ := lb.NewBackend(backendSrv.URL)
	sim.LB.Backends = []*lb.Backend{backend}
	lbSrv := httptest.NewServer(sim.LB)
	defer lbSrv.Close()

	// Pick one job of each user.
	jobOf := func(user string) string {
		rows, err := sim.Store.Select("units", relstore.Query{
			Where: []relstore.Cond{{Col: "user", Op: relstore.OpEq, Val: user}},
			Limit: 1,
		})
		if err != nil || len(rows) == 0 {
			log.Fatalf("no units for %s", user)
		}
		return rows[0]["id"].(string)
	}
	jobA, jobB := jobOf("user00"), jobOf("user01")
	fmt.Printf("user00 owns job %s; user01 owns job %s\n\n", jobA, jobB)

	query := func(asUser, jobID string) int {
		q := fmt.Sprintf(`{__name__=~"uuid:total_watts:.+",uuid=%q}`, jobID)
		req, _ := http.NewRequest(http.MethodGet,
			lbSrv.URL+"/api/v1/query?query="+url.QueryEscape(q), nil)
		req.Header.Set("X-Grafana-User", asUser) // the header Grafana always sends
		resp, err := lbSrv.Client().Do(req)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	cases := []struct {
		user, job, expect string
	}{
		{"user00", jobA, "own job → allowed"},
		{"user01", jobB, "own job → allowed"},
		{"user00", jobB, "someone else's job → denied"},
		{"user01", jobA, "someone else's job → denied"},
		{"operator", jobA, "admin → allowed"},
		{"operator", jobB, "admin → allowed"},
	}
	fmt.Println("LB access-control matrix:")
	for _, c := range cases {
		code := query(c.user, c.job)
		fmt.Printf("  %-9s queries job %-3s → HTTP %d   (%s)\n", c.user, c.job, code, c.expect)
	}
	fmt.Printf("\nqueries denied by the LB: %d\n", sim.LB.Denied())

	// Queries without unit selectors (node dashboards) pass for everyone.
	req, _ := http.NewRequest(http.MethodGet,
		lbSrv.URL+"/api/v1/query?query="+url.QueryEscape(`sum(ceems_ipmi_dcmi_current_watts)`), nil)
	req.Header.Set("X-Grafana-User", "user00")
	resp, _ := lbSrv.Client().Do(req)
	resp.Body.Close()
	fmt.Printf("node-level query (no uuid) as user00 → HTTP %d\n", resp.StatusCode)
}
