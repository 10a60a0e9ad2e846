// Package config defines the single-YAML-file configuration shared by all
// CEEMS components (paper §II.D: "All the CEEMS components can be
// configured in a single YAML file where each component will read its
// relevant configuration").
//
// Config is the one declaration of every operator-settable value: a leaf
// field's tags carry its YAML key, its command-line flag (the key with
// dashes unless a `flag` tag says otherwise) and its help text, Default
// carries its default. A command registers the fields it reads with
// Register and calls ParseFlags; nothing else declares a setting.
package config

import (
	"fmt"
	"os"
	"time"

	"repro/internal/yamlite"
)

// Config is the root of the unified configuration file.
type Config struct {
	Cluster   ClusterConfig   `yaml:"cluster"`
	Exporter  ExporterConfig  `yaml:"exporter"`
	TSDB      TSDBConfig      `yaml:"tsdb"`
	Thanos    ThanosConfig    `yaml:"thanos"`
	Ring      RingConfig      `yaml:"ring"`
	APIServer APIServerConfig `yaml:"api_server"`
	LB        LBConfig        `yaml:"lb"`
	Emissions EmissionsConfig `yaml:"emissions"`
	Sim       SimConfig       `yaml:"sim"`
}

// ClusterConfig describes the monitored cluster.
type ClusterConfig struct {
	Name string `yaml:"name" flag:"cluster" help:"cluster name (the cluster label on scraped series)"`
	Zone string `yaml:"zone" help:"grid zone for emission factors"`
}

// ExporterConfig configures the per-node exporter. A scraper registers the
// two credentials under a "scrape-" prefix: they are the same secret.
type ExporterConfig struct {
	Listen            string   `yaml:"listen" help:"HTTP listen address"`
	DisableCollectors []string `yaml:"disable_collectors" flag:"disable" help:"comma-separated collectors to disable (all enabled by default)"`
	BasicAuthUser     string   `yaml:"basic_auth_user" flag:"auth-user" help:"basic auth user of the exporter's /metrics (empty disables auth)"`
	BasicAuthPassword string   `yaml:"basic_auth_password" flag:"auth-pass" help:"basic auth password of the exporter's /metrics"`
}

// TSDBConfig configures the Prometheus role: scraping, rules, the hot TSDB
// head and its query API (prometheus_sim, and cluster_sim's embedded one).
type TSDBConfig struct {
	Listen             string        `yaml:"listen" help:"Prometheus API listen address (cluster_sim serves it behind the access-control LB)"`
	Targets            []string      `yaml:"targets" help:"comma-separated exporter targets (host:port)"`
	ScrapeInterval     time.Duration `yaml:"scrape_interval" help:"scrape interval"`
	RuleInterval       time.Duration `yaml:"rule_interval" help:"rule evaluation interval"`
	RetentionPeriod    time.Duration `yaml:"retention" help:"how much history a head keeps when no block store takes it over (head-only prometheus_sim, cluster_sim ring members)"`
	RateWindow         string        `yaml:"rate_window" help:"range window of the recording rules' counter rates"`
	QueryTimeout       time.Duration `yaml:"query_timeout" help:"per-query evaluation deadline (0 disables)"`
	WALDir             string        `yaml:"wal_dir" help:"per-shard TSDB write-ahead-log directory; restarts replay it (empty = memory-only head; cluster mode journals under <dir>/<node>)"`
	QueryCacheBytes    int64         `yaml:"query_cache_bytes" help:"query-result cache byte budget; repeated dashboard range queries reuse cached steps and evaluate only the new tail (0 disables)"`
	RemoteWrite        bool          `yaml:"remote_write" help:"serve POST /api/v1/write: framed expofmt push ingest with 429 backpressure; clustered runs commit pushed samples with W-quorum semantics (see /api/v1/status/ingest)"`
	OOOWindow          time.Duration `yaml:"ooo_window" help:"accept samples up to this far behind the head max time (remote-write retry tolerance); 0 keeps strict ordering"`
	SlowQueryThreshold time.Duration `yaml:"slow_query_threshold" help:"queries at or above this duration land in the slow-query ring at /api/v1/status/queries (0 disables the slow log; active-query tracking always on)"`
	PprofAddr          string        `yaml:"pprof_addr" help:"serve net/http/pprof on this address (empty disables); kept off the query listeners so profiling is never exposed to query clients"`
}

// ThanosConfig configures long-term storage: the persistent block store
// the head is cut into.
type ThanosConfig struct {
	Dir          string        `yaml:"dir" flag:"blocks-dir" help:"persistent block store directory: the head is cut into immutable blocks every -block-range, compacted and downsampled in the background, and queries fan in over head + blocks (see docs/ARCHITECTURE.md); empty keeps the head-only lifecycle"`
	ShipInterval time.Duration `yaml:"ship_interval" flag:"block-range" help:"block cut cadence; the head keeps 2x this after each cut so lookback windows never straddle a gap"`
}

// RingConfig describes the replicated TSDB ring: cluster_sim builds it
// from these keys and ceems_lb derives its failover budget from the same
// R and W.
type RingConfig struct {
	Nodes             int `yaml:"nodes" flag:"cluster-nodes" help:"number of TSDB storage nodes; >1 runs the consistent-hash ring with quorum replication (per-node WALs under -wal-dir/<node>)"`
	ReplicationFactor int `yaml:"replication_factor" help:"ring replication factor R (copies per series); 0 picks min(3, nodes) in cluster_sim and disables failover in ceems_lb"`
	WriteQuorum       int `yaml:"write_quorum" help:"write quorum W (node acks before a commit returns); 0 picks the majority R/2+1; reads need R-W+1 live replicas, so the LB retries GET/HEAD on up to R-W other backends"`
}

// APIServerConfig configures the CEEMS API server.
type APIServerConfig struct {
	Listen          string        `yaml:"listen" help:"CEEMS API listen address"`
	SlurmDBD        string        `yaml:"slurmdbd" help:"slurmdbd base URL (required by ceems_api_server)"`
	Prometheus      string        `yaml:"prometheus" help:"Prometheus/Thanos base URL for remote read (required by ceems_api_server)"`
	DataDir         string        `yaml:"data_dir" help:"DB directory (empty = in-memory)"`
	BackupDir       string        `yaml:"backup_dir" help:"continuous backup directory (empty disables; needs -data-dir)"`
	UpdateInterval  time.Duration `yaml:"update_interval" help:"aggregate update interval"`
	BackupInterval  time.Duration `yaml:"backup_interval" help:"interval between backups into -backup-dir"`
	ShortUnitCutoff time.Duration `yaml:"short_unit_cutoff" help:"terminated units shorter than this have their series deleted from the TSDB (needs an embedded TSDB, as in cluster_sim)"`
	AdminUsers      []string      `yaml:"admin_users" flag:"admins" help:"comma-separated admin users"`
}

// LBConfig configures the load balancer.
type LBConfig struct {
	Listen         string        `yaml:"listen" help:"HTTP listen address"`
	Backends       []string      `yaml:"backends" help:"comma-separated backend base URLs (required)"`
	Strategy       string        `yaml:"strategy" help:"round-robin or least-connection"`
	APIServer      string        `yaml:"api_server" help:"CEEMS API server base URL for ownership checks (empty disables access control)"`
	HealthInterval time.Duration `yaml:"health_interval" help:"backend health check interval"`
	QueryTimeout   time.Duration `yaml:"query_timeout" help:"per-query proxy deadline covering ownership check and backend round-trip (0 disables)"`
}

// EmissionsConfig selects emission factor providers in priority order
// (emissions.FromConfig builds the chain).
type EmissionsConfig struct {
	Providers  []string `yaml:"providers" help:"emission factor providers tried in order: rte, emaps, owid"`
	RTEURL     string   `yaml:"rte_url" help:"RTE eCO2mix endpoint"`
	EMapsURL   string   `yaml:"emaps_url" help:"Electricity Maps base URL"`
	EMapsToken string   `yaml:"emaps_token" help:"Electricity Maps auth token"`
}

// SimConfig parameterizes the simulated platform (cluster_sim only).
type SimConfig struct {
	IntelNodes       int     `yaml:"intel_nodes" help:"simulated Intel CPU nodes"`
	AMDNodes         int     `yaml:"amd_nodes" help:"simulated AMD CPU nodes"`
	GPUIncludedNodes int     `yaml:"gpu_included_nodes" help:"simulated GPU nodes whose IPMI reading includes the GPUs"`
	GPUExcludedNodes int     `yaml:"gpu_excluded_nodes" help:"simulated GPU nodes whose IPMI reading excludes the GPUs"`
	Users            int     `yaml:"users" help:"simulated users"`
	Projects         int     `yaml:"projects" help:"simulated projects"`
	JobsPerDay       float64 `yaml:"jobs_per_day" help:"synthetic workload submission rate"`
	Seed             int64   `yaml:"seed" help:"workload and topology seed"`
}

// Default returns the defaults every command starts from: the deployment
// cadence of the paper over a small simulated platform.
func Default() Config {
	return Config{
		Cluster:  ClusterConfig{Name: "sim", Zone: "FR"},
		Exporter: ExporterConfig{Listen: ":9100"},
		TSDB: TSDBConfig{
			Listen: ":9090", ScrapeInterval: 15 * time.Second, RuleInterval: time.Minute,
			RetentionPeriod: 15 * 24 * time.Hour, RateWindow: "2m",
			QueryTimeout: 2 * time.Minute, QueryCacheBytes: 64 << 20,
		},
		Thanos: ThanosConfig{ShipInterval: 2 * time.Hour},
		Ring:   RingConfig{Nodes: 1},
		APIServer: APIServerConfig{
			Listen: ":9200", UpdateInterval: 5 * time.Minute, BackupInterval: time.Hour,
			ShortUnitCutoff: time.Minute,
		},
		LB: LBConfig{
			Listen: ":9091", Strategy: "round-robin", HealthInterval: 15 * time.Second,
			QueryTimeout: 2 * time.Minute,
		},
		Emissions: EmissionsConfig{Providers: []string{"owid"}},
		Sim: SimConfig{
			IntelNodes: 4, AMDNodes: 2, GPUIncludedNodes: 1, GPUExcludedNodes: 1,
			Users: 8, Projects: 3, JobsPerDay: 600, Seed: 1,
		},
	}
}

// Load overlays the YAML file at path onto c. yamlite skips keys it cannot
// place; a settings file must not, or a typo silently keeps the default.
func (c *Config) Load(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	tree, err := yamlite.Parse(data)
	if err != nil {
		return fmt.Errorf("config: %s: %w", path, err)
	}
	known := map[string]bool{}
	for _, l := range c.leaves() {
		known[l.key] = true
	}
	sections, _ := tree.(map[string]any)
	for section, body := range sections {
		keys, ok := body.(map[string]any)
		if !ok && body != nil {
			return fmt.Errorf("config: %s: section %q is not a mapping", path, section)
		}
		for key := range keys {
			if !known[section+"."+key] {
				return fmt.Errorf("config: %s: unknown key %s.%s", path, section, key)
			}
		}
	}
	if err := yamlite.Unmarshal(data, c); err != nil {
		return fmt.Errorf("config: %s: %w", path, err)
	}
	return nil
}

// Validate checks cross-field invariants. Provider names are checked where
// the chain is built (emissions.FromConfig), by the commands that read them.
func (c Config) Validate() error {
	if c.Cluster.Name == "" {
		return fmt.Errorf("config: cluster.name required")
	}
	if c.TSDB.ScrapeInterval <= 0 {
		return fmt.Errorf("config: tsdb.scrape_interval must be positive")
	}
	if c.TSDB.RuleInterval < c.TSDB.ScrapeInterval {
		return fmt.Errorf("config: tsdb.rule_interval must be >= scrape_interval")
	}
	switch c.LB.Strategy {
	case "round-robin", "least-connection":
	default:
		return fmt.Errorf("config: lb.strategy must be round-robin or least-connection, not %q", c.LB.Strategy)
	}
	if c.Thanos.ShipInterval <= 0 {
		return fmt.Errorf("config: thanos.ship_interval must be positive")
	}
	if c.Ring.ReplicationFactor > 0 && c.Ring.WriteQuorum > c.Ring.ReplicationFactor {
		return fmt.Errorf("config: ring.write_quorum %d exceeds ring.replication_factor %d",
			c.Ring.WriteQuorum, c.Ring.ReplicationFactor)
	}
	if c.Sim.JobsPerDay < 0 {
		return fmt.Errorf("config: sim.jobs_per_day must be non-negative")
	}
	return nil
}
