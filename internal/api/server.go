package api

import (
	"context"
	"encoding/json"
	"log"
	"net/http"
	"strconv"
	"time"

	"repro/internal/model"
	"repro/internal/relstore"
)

// Server exposes the CEEMS API server's REST endpoints. Endpoints follow
// the real server's API: units, users, projects and usage listings, plus
// the ownership-verification endpoint the load balancer calls when it
// cannot read the DB file directly.
//
//	GET /api/v1/units?cluster=&user=&project=&state=&from=&to=&limit=&offset=
//	GET /api/v1/users?cluster=
//	GET /api/v1/projects?cluster=
//	GET /api/v1/units/verify?user=<u>&uuid=<cluster/manager/id or bare id>
//	GET /api/v1/units/verify?user=<u>   (admin check: 200 admin, 403 not)
//	GET /api/v1/health
//
// The requesting identity arrives in the X-Grafana-User header; ordinary
// users can only list their own units while admins see everything (paper
// §II.B.c).
type Server struct {
	Store *relstore.DB
	// Updater, when set, exposes its stats on /api/v1/health.
	Updater *Updater
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/units", s.handleUnits)
	mux.HandleFunc("/api/v1/units/verify", s.handleVerify)
	mux.HandleFunc("/api/v1/users", s.handleUsers)
	mux.HandleFunc("/api/v1/projects", s.handleProjects)
	mux.HandleFunc("/api/v1/health", s.handleHealth)
	return mux
}

// IsAdmin reports whether the user is in the admin table.
func (s *Server) IsAdmin(user string) bool {
	if user == "" {
		return false
	}
	found := false
	err := s.Store.Each(TableAdmins, []relstore.Cond{{Col: "user", Op: relstore.OpEq, Val: user}},
		func(relstore.Row) bool { found = true; return false })
	return err == nil && found
}

// AddAdmin registers an administrator.
func (s *Server) AddAdmin(user string) error {
	return s.Store.Upsert(TableAdmins, relstore.Row{"user": user})
}

// OwnsUnit reports whether the user owns the unit identified by uuid. The
// uuid may be the full cluster/manager/id key or a bare manager-native ID
// (as extracted from a PromQL query by the LB); bare IDs match any cluster,
// and the user must own the unit on every one. The LB asks this on every
// query, so the rows are read in place, never copied.
func (s *Server) OwnsUnit(user, uuid string) (bool, error) {
	found, owns := false, true
	visit := func(row relstore.Row) bool {
		found = true
		owns = str(row, "user") == user
		return owns
	}
	for _, col := range [...]string{"uuid", "id"} {
		if err := s.Store.Each(TableUnits, []relstore.Cond{{Col: col, Op: relstore.OpEq, Val: uuid}}, visit); err != nil {
			return false, err
		}
		if found {
			return owns, nil
		}
	}
	return false, nil
}

func requestUser(r *http.Request) string { return r.Header.Get("X-Grafana-User") }

func (s *Server) handleUnits(w http.ResponseWriter, r *http.Request) {
	q := relstore.Query{OrderBy: "created_at", Desc: true}
	user := requestUser(r)
	qs := r.URL.Query()

	// Non-admins are forced onto their own units.
	if !s.IsAdmin(user) {
		if user == "" {
			http.Error(w, "missing X-Grafana-User", http.StatusUnauthorized)
			return
		}
		q.Where = append(q.Where, relstore.Cond{Col: "user", Op: relstore.OpEq, Val: user})
	} else if v := qs.Get("user"); v != "" {
		q.Where = append(q.Where, relstore.Cond{Col: "user", Op: relstore.OpEq, Val: v})
	}
	for _, col := range []string{"cluster", "project", "state"} {
		if v := qs.Get(col); v != "" {
			q.Where = append(q.Where, relstore.Cond{Col: col, Op: relstore.OpEq, Val: v})
		}
	}
	if v := qs.Get("from"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			http.Error(w, "bad from", http.StatusBadRequest)
			return
		}
		q.Where = append(q.Where, relstore.Cond{Col: "created_at", Op: relstore.OpGe, Val: ms})
	}
	if v := qs.Get("to"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			http.Error(w, "bad to", http.StatusBadRequest)
			return
		}
		q.Where = append(q.Where, relstore.Cond{Col: "created_at", Op: relstore.OpLe, Val: ms})
	}
	q.Limit = atoiDefault(qs.Get("limit"), 1000)
	q.Offset = atoiDefault(qs.Get("offset"), 0)

	rows, err := s.Store.Select(TableUnits, q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	units := make([]model.Unit, len(rows))
	for i, row := range rows {
		units[i] = rowToUnit(row)
	}
	writeJSON(w, units)
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	uuid := r.URL.Query().Get("uuid")
	if user == "" {
		http.Error(w, "user required", http.StatusBadRequest)
		return
	}
	admin := s.IsAdmin(user)
	if uuid == "" {
		// No unit asked about: the caller (the LB) wants the admin bit.
		if !admin {
			w.WriteHeader(http.StatusForbidden)
		}
		writeJSON(w, map[string]bool{"admin": admin})
		return
	}
	if admin {
		writeJSON(w, map[string]bool{"owns": true})
		return
	}
	owns, err := s.OwnsUnit(user, uuid)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if !owns {
		w.WriteHeader(http.StatusForbidden)
	}
	writeJSON(w, map[string]bool{"owns": owns})
}

func (s *Server) handleUsers(w http.ResponseWriter, r *http.Request) {
	s.handleRollup(w, r, TableUsers, "user")
}

func (s *Server) handleProjects(w http.ResponseWriter, r *http.Request) {
	s.handleRollup(w, r, TableProjects, "project")
}

func (s *Server) handleRollup(w http.ResponseWriter, r *http.Request, table, selfCol string) {
	q := relstore.Query{OrderBy: "total_energy_j", Desc: true}
	user := requestUser(r)
	admin := s.IsAdmin(user)
	if !admin {
		if user == "" {
			http.Error(w, "missing X-Grafana-User", http.StatusUnauthorized)
			return
		}
		if table == TableUsers {
			q.Where = append(q.Where, relstore.Cond{Col: "user", Op: relstore.OpEq, Val: user})
		}
		// Project rollups: a user may query projects they have units in;
		// for simplicity non-admins see projects of their own units.
	}
	if v := r.URL.Query().Get("cluster"); v != "" {
		q.Where = append(q.Where, relstore.Cond{Col: "cluster", Op: relstore.OpEq, Val: v})
	}
	rows, err := s.Store.Select(table, q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if table == TableProjects && !admin {
		rows = s.filterProjectsFor(user, rows)
	}
	writeJSON(w, rows)
}

// filterProjectsFor keeps only projects in which the user has units.
func (s *Server) filterProjectsFor(user string, rows []relstore.Row) []relstore.Row {
	mine, err := s.Store.Select(TableUnits, relstore.Query{
		Where: []relstore.Cond{{Col: "user", Op: relstore.OpEq, Val: user}},
	})
	if err != nil {
		return nil
	}
	member := map[string]bool{}
	for _, r := range mine {
		member[projectKey(str(r, "cluster"), str(r, "project"))] = true
	}
	out := rows[:0]
	for _, r := range rows {
		if member[str(r, "key")] {
			out = append(out, r)
		}
	}
	return out
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := map[string]any{"status": "ok", "tables": s.Store.Tables()}
	if s.Updater != nil {
		resp["units_seen"] = s.Updater.UnitsSeen
		resp["series_deleted"] = s.Updater.SeriesDeleted
		resp["updates"] = s.Updater.UpdatesApplied
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func atoiDefault(s string, def int) int {
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return def
	}
	return n
}

// RunPeriodic drives the updater at start-up and then every interval, and
// the optional backup every backupInterval, until ctx is cancelled (the
// production loop; simulations call Update/Sync directly with virtual
// clocks). A failed pass or backup is logged with its error.
func RunPeriodic(ctx context.Context, u *Updater, interval time.Duration, backup func() error, backupInterval time.Duration) {
	if interval <= 0 {
		interval = time.Minute
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var backupC <-chan time.Time // nil, so never ready, without a backup
	if backup != nil && backupInterval > 0 {
		bt := time.NewTicker(backupInterval)
		defer bt.Stop()
		backupC = bt.C
	}
	update := func() {
		if err := u.Update(ctx, time.Now()); err != nil {
			log.Printf("api: update pass: %v", err)
		}
	}
	update()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			update()
		case <-backupC:
			if err := backup(); err != nil {
				log.Printf("api: backup: %v", err)
			}
		}
	}
}
