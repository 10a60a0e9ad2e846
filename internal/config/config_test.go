package config

import (
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/yamlite"
)

const sampleYAML = `
cluster:
  name: jean-zay
  zone: FR
exporter:
  listen: ":9100"
  disable_collectors: [gpumap]
  basic_auth_user: ceems
  basic_auth_password: secret
tsdb:
  scrape_interval: 15s
  rule_interval: 1m
  retention: 360h
  rate_window: 2m
thanos:
  dir: /var/lib/thanos
  ship_interval: 30m
ring:
  nodes: 3
  write_quorum: 2
api_server:
  listen: ":9200"
  update_interval: 5m
  short_unit_cutoff: 1m
  admin_users: [root, ops]
lb:
  listen: ":9090"
  backends: ["http://tsdb-a:9090", "http://tsdb-b:9090"]
  strategy: least-connection
emissions:
  providers: [rte, owid]
  rte_url: "http://rte-mock:8080"
sim:
  intel_nodes: 10
  users: 16
  jobs_per_day: 5000
`

// parse loads the YAML over the defaults and validates, as ParseFlags does
// with a -config file.
func parse(t *testing.T, yaml string) (Config, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ceems.yaml")
	if err := os.WriteFile(path, []byte(yaml), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	if err := cfg.Load(path); err != nil {
		return cfg, err
	}
	return cfg, cfg.Validate()
}

func TestParseFull(t *testing.T) {
	cfg, err := parse(t, sampleYAML)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if cfg.Cluster.Name != "jean-zay" || cfg.Cluster.Zone != "FR" {
		t.Errorf("cluster = %+v", cfg.Cluster)
	}
	if cfg.Exporter.BasicAuthUser != "ceems" || len(cfg.Exporter.DisableCollectors) != 1 {
		t.Errorf("exporter = %+v", cfg.Exporter)
	}
	if cfg.TSDB.ScrapeInterval != 15*time.Second || cfg.TSDB.RetentionPeriod != 360*time.Hour {
		t.Errorf("tsdb = %+v", cfg.TSDB)
	}
	if cfg.LB.Strategy != "least-connection" || len(cfg.LB.Backends) != 2 {
		t.Errorf("lb = %+v", cfg.LB)
	}
	if len(cfg.Emissions.Providers) != 2 || cfg.Emissions.Providers[0] != "rte" {
		t.Errorf("emissions = %+v", cfg.Emissions)
	}
	if cfg.Thanos.ShipInterval != 30*time.Minute || cfg.Ring.Nodes != 3 || cfg.Ring.WriteQuorum != 2 {
		t.Errorf("thanos = %+v, ring = %+v", cfg.Thanos, cfg.Ring)
	}
	if len(cfg.APIServer.AdminUsers) != 2 {
		t.Errorf("admins = %v", cfg.APIServer.AdminUsers)
	}
	// Defaults fill unspecified fields.
	if cfg.Sim.Projects != 3 {
		t.Errorf("default projects = %d", cfg.Sim.Projects)
	}
	if cfg.Sim.IntelNodes != 10 || cfg.Sim.JobsPerDay != 5000 {
		t.Errorf("sim overrides lost: %+v", cfg.Sim)
	}
}

func TestDefaults(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
}

func TestValidation(t *testing.T) {
	bad := []string{
		"cluster:\n  name: \"\"",
		"cluster:\n  name: x\ntsdb:\n  scrape_interval: 0s",
		"cluster:\n  name: x\ntsdb:\n  scrape_interval: 1m\n  rule_interval: 15s",
		"cluster:\n  name: x\nlb:\n  strategy: random",
		"cluster:\n  name: x\nthanos:\n  ship_interval: 0s",
		"cluster:\n  name: x\nring:\n  replication_factor: 2\n  write_quorum: 3",
		"cluster:\n  name: x\nsim:\n  jobs_per_day: -5",
	}
	for i, y := range bad {
		if _, err := parse(t, y); err == nil {
			t.Errorf("case %d accepted: %s", i, y)
		}
	}
}

func TestLoadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ceems.yaml")
	if err := os.WriteFile(path, []byte(sampleYAML), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	if err := cfg.Load(path); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if cfg.Cluster.Name != "jean-zay" {
		t.Error("file config not applied")
	}
	if err := cfg.Load(filepath.Join(dir, "missing.yaml")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestUnknownKeyRejected(t *testing.T) {
	for _, y := range []string{
		"tsdb:\n  scrape_intervall: 15s",   // a typo must not keep the default silently
		"thanos:\n  head_retention: 2h",    // removed: derived as 2x ship_interval
		"thanos:\n  downsample: true",      // removed: always on
		"lb:\n  proxy_retries: 1",          // removed: always R-W of the ring section
		"lb:\n  cache_settled_ttl: 10m",    // removed: range answers are not cached by the LB
		"lb:\n  cache_bytes: 33554432",     // removed: the LB caches no response
		"lb:\n  cache_ttl: 15s",            // removed: likewise
		"prometheus:\n  listen: \":9090\"", // no such section
		"tsdb: 5",
	} {
		if _, err := parse(t, y); err == nil {
			t.Errorf("accepted: %s", y)
		}
	}
	if _, err := parse(t, "exporter:\ntsdb:\n  listen: \":1\""); err != nil {
		t.Errorf("empty section rejected: %v", err)
	}
}

// forCommand is ForCommand on a throwaway flag set.
func forCommand(cmd string, args ...string) (Config, error) {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return ForCommand(cmd, fs, args)
}

func TestPrecedenceDefaultFileFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ceems.yaml")
	file := "lb:\n  listen: \":7000\"\n  strategy: least-connection\n  backends: [http://a, http://b]\n  query_timeout: 30s\nring:\n  write_quorum: 2\n  replication_factor: 3\n"
	if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := forCommand("ceems_lb", "-listen", ":8000", "-backends", "http://c,,http://d", "-replication-factor=5", "-config", path)
	if err != nil {
		t.Fatal(err)
	}
	// flag beats file
	if cfg.LB.Listen != ":8000" || cfg.Ring.ReplicationFactor != 5 {
		t.Errorf("explicit flags lost to the file: listen %q, R %d", cfg.LB.Listen, cfg.Ring.ReplicationFactor)
	}
	if got := cfg.LB.Backends; len(got) != 2 || got[0] != "http://c" || got[1] != "http://d" {
		t.Errorf("backends = %q, want the flag's list, empty items dropped", got)
	}
	// file beats default; a flag left alone never clobbers it
	if cfg.LB.Strategy != "least-connection" || cfg.LB.QueryTimeout != 30*time.Second || cfg.Ring.WriteQuorum != 2 {
		t.Errorf("file values clobbered by unset flags: %+v, W %d", cfg.LB, cfg.Ring.WriteQuorum)
	}
	// default survives where neither speaks
	if cfg.LB.HealthInterval != 15*time.Second || cfg.TSDB.Listen != ":9090" {
		t.Errorf("defaults lost: %+v", cfg.LB)
	}

	// Start-up errors, for the command that reads the setting: a bad value
	// by flag or by file, an unknown key, a missing file.
	if err := os.WriteFile(path, []byte("lb:\n  strategy: typo\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-strategy", "typo"},
		{"-write-quorum", "3", "-replication-factor", "2"},
		{"-config", path},
		{"-config", filepath.Join(t.TempDir(), "missing.yaml")},
		{"-no-such-flag"},
	} {
		if _, err := forCommand("ceems_lb", args...); err == nil {
			t.Errorf("ceems_lb %v started", args)
		}
	}
}

// pinned is every flag internal/config declares for each command, with its
// default. Names and defaults are those of the -h output before the file
// became the one place a setting is declared (PR 23), so a command line
// that ran then runs now; the additions are marked. The run-steering flags
// the mains declare themselves (-class/-node/-workloads, -accel/-duration/
// -report/-chaos) are not settings and not listed.
var pinned = map[string]map[string]string{
	"ceems_exporter": {
		"config": "", // new: the shared file, here and below
		"listen": ":9100", "auth-user": "", "auth-pass": "", "disable": "",
	},
	"prometheus_sim": {
		"config": "",
		"listen": ":9090", "targets": "", "cluster": "sim",
		"scrape-interval": "15s", "rule-interval": "1m0s",
		"scrape-auth-user": "", "scrape-auth-pass": "",
		"query-timeout": "2m0s", "wal-dir": "",
		"query-cache-bytes": "67108864",
		"remote-write":      "false", "ooo-window": "0s",
		"slow-query-threshold": "0s", "pprof-addr": "",
		"blocks-dir": "", "block-range": "2h0m0s",
		// File keys no process read before; prometheus_sim honours them now.
		"retention": "360h0m0s", "rate-window": "2m",
	},
	"ceems_api_server": {
		"config": "",
		"listen": ":9200", "slurmdbd": "", "prometheus": "", "cluster": "sim", "zone": "FR",
		"data-dir": "", "backup-dir": "", "update-interval": "5m0s",
		"short-unit-cutoff": "1m0s", "admins": "",
		// A file key no process read before; backups now run on it.
		"backup-interval": "1h0m0s",
	},
	"ceems_lb": {
		"config": "",
		"listen": ":9091", "backends": "", "api-server": "", "strategy": "round-robin",
		"health-interval": "15s", "query-timeout": "2m0s",
		"replication-factor": "0", "write-quorum": "0",
	},
	"cluster_sim": {
		"config":      "",
		"prom-listen": ":9090", "api-listen": ":9200", "wal-dir": "",
		"cluster-nodes": "1", "replication-factor": "0", "write-quorum": "0",
		"remote-write": "false", "ooo-window": "0s",
		"slow-query-threshold": "0s", "pprof-addr": "",
	},
}

func commandFlags(cmd string) (*Config, *flag.FlagSet) {
	cfg := Default()
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	cfg.registerCommand(cmd, fs)
	return &cfg, fs
}

func TestFlagsPinned(t *testing.T) {
	for cmd, want := range pinned {
		got := map[string]string{}
		_, fs := commandFlags(cmd)
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s flags and defaults\n got %v\nwant %v", cmd, got, want)
		}
	}
}

// Markers around the generated flag table in a command's README.md.
const (
	tableBegin = "<!-- flags:begin (generated from internal/config by `UPDATE_README=1 go test ./internal/config/`; do not edit) -->\n"
	tableEnd   = "<!-- flags:end -->"
)

// flagTable renders the flags internal/config declares for a command as a
// Markdown table, each with the file key it is the command-line form of.
func flagTable(cfg *Config, fs *flag.FlagSet) string {
	keys := map[uintptr]string{}
	for _, l := range cfg.leaves() {
		keys[l.v.Addr().Pointer()] = "`" + l.key + "`"
	}
	table := "| flag | file key | default | meaning |\n|---|---|---|---|\n"
	fs.VisitAll(func(f *flag.Flag) {
		_, usage := flag.UnquoteUsage(f)
		table += fmt.Sprintf("| `-%s` | %s | %s | %s |\n", f.Name, keys[reflect.ValueOf(f.Value).Pointer()],
			f.DefValue, strings.NewReplacer("|", `\|`, "<", "&lt;").Replace(usage))
	})
	return table
}

// TestREADMEFlagTables: the flag tables in the command READMEs are what the
// registrar generates; UPDATE_README=1 rewrites them.
func TestREADMEFlagTables(t *testing.T) {
	for _, cmd := range []string{"prometheus_sim", "cluster_sim", "ceems_lb"} {
		path := "../../cmd/" + cmd + "/README.md"
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := flagTable(commandFlags(cmd))
		head, rest, found := strings.Cut(string(data), tableBegin)
		old, tail, closed := strings.Cut(rest, tableEnd)
		switch {
		case !found || !closed:
			t.Errorf("%s: flag table markers not found", path)
		case old == want:
		case os.Getenv("UPDATE_README") == "":
			t.Errorf("%s: flag table is out of date; run `UPDATE_README=1 go test ./internal/config/`", path)
		default:
			if err := os.WriteFile(path, []byte(head+tableBegin+want+tableEnd+tail), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestEveryLeafDeclaresItself: a setting is one struct field line — YAML
// key, help text, a flag name unique within its section.
func TestEveryLeafDeclaresItself(t *testing.T) {
	cfg := Default()
	seen := map[string]bool{}
	for _, l := range cfg.leaves() {
		section, key, _ := strings.Cut(l.key, ".")
		if section == "" || key == "" || l.help == "" {
			t.Errorf("%s: missing yaml or help tag", l.key)
		}
		if seen[section+" -"+l.flag] {
			t.Errorf("%s: flag -%s declared twice in the section", l.key, l.flag)
		}
		seen[section+" -"+l.flag] = true
	}
}

// TestExampleSetsEveryKey: the committed example file loads, and names every
// key there is.
func TestExampleSetsEveryKey(t *testing.T) {
	const path = "../../examples/ceems.yaml"
	cfg := Default()
	if err := cfg.Load(path); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := yamlite.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range cfg.leaves() {
		section, key, _ := strings.Cut(l.key, ".")
		body, _ := tree.(map[string]any)[section].(map[string]any)
		if _, ok := body[key]; !ok {
			t.Errorf("%s does not set %s", path, l.key)
		}
	}
}

// TestEverySettingIsRead: a setting nothing reads is a lie in the file's
// schema. For every leaf field, some non-test Go file outside this package
// (and outside bench/, which takes no configuration) must select it — as
// cfg.Section.Field, or as .Field in a file that handles the section's type
// by name.
func TestEverySettingIsRead(t *testing.T) {
	var sources []string
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, "../../"))
		if d.IsDir() && (rel == "internal/config" || rel == "bench" || strings.HasPrefix(d.Name(), ".") && rel != "../..") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			sources = append(sources, string(data))
		}
		return nil
	})
	if err != nil || len(sources) == 0 {
		t.Fatalf("walk: %d files, %v", len(sources), err)
	}
	root := reflect.TypeOf(Config{})
	for i := 0; i < root.NumField(); i++ {
		section := root.Field(i)
		for j := 0; j < section.Type.NumField(); j++ {
			field := section.Type.Field(j).Name
			direct := regexp.MustCompile(`\.` + section.Name + `\.` + field + `\b`)
			viaType := regexp.MustCompile(`\.` + field + `\b`)
			read := false
			for _, src := range sources {
				if direct.MatchString(src) || strings.Contains(src, "config."+section.Type.Name()) && viaType.MatchString(src) {
					read = true
					break
				}
			}
			if !read {
				t.Errorf("%s.%s is read by no code: honour it or delete it", section.Name, field)
			}
		}
	}
}
