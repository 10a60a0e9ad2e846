package config

import (
	"flag"
	"fmt"
	"reflect"
	"strings"
	"time"
)

// leaf is one setting: a field of one of c's sections.
type leaf struct {
	key  string // "section.key" in the YAML file
	flag string
	help string
	v    reflect.Value // the field, addressable
}

func (c *Config) leaves() []leaf {
	var out []leaf
	root := reflect.ValueOf(c).Elem()
	for i := 0; i < root.NumField(); i++ {
		section := root.Field(i)
		for j := 0; j < section.NumField(); j++ {
			f := section.Type().Field(j)
			key := f.Tag.Get("yaml")
			name := f.Tag.Get("flag")
			if name == "" {
				name = strings.ReplaceAll(key, "_", "-")
			}
			out = append(out, leaf{
				key:  root.Type().Field(i).Tag.Get("yaml") + "." + key,
				flag: name, help: f.Tag.Get("help"), v: section.Field(j),
			})
		}
	}
	return out
}

// csv is the one list flag kind: comma-separated, empty items dropped.
type csv []string

func (l *csv) String() string { return strings.Join(*l, ",") }

func (l *csv) Set(s string) error {
	*l = strings.FieldsFunc(s, func(r rune) bool { return r == ',' })
	return nil
}

// ForCommand is how a daemon's main gets its settings: the defaults, then
// the -config file if one is given, then the flags the command line names —
// default < file < flag, so a flag left alone never clobbers a file value —
// validated. fs may already hold the command's own run-steering flags.
func ForCommand(cmd string, fs *flag.FlagSet, args []string) (Config, error) {
	c := Default()
	c.registerCommand(cmd, fs)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if path := fs.Lookup("config").Value.String(); path != "" {
		explicit := map[string]string{}
		fs.Visit(func(f *flag.Flag) { explicit[f.Name] = f.Value.String() })
		if err := c.Load(path); err != nil {
			return c, err
		}
		for name, v := range explicit {
			if err := fs.Set(name, v); err != nil {
				return c, err
			}
		}
	}
	return c, c.Validate()
}

// registerCommand declares -config and the settings cmd reads as flags:
// which command reads which part of the file is decided here and nowhere
// else. A section shared by two commands is registered by both, a listen
// address or a credential that two of them would name alike under a prefix.
func (c *Config) registerCommand(cmd string, fs *flag.FlagSet) {
	fs.String("config", "", "YAML config `file` shared by all CEEMS components; flags given explicitly override it (empty = built-in defaults)")
	switch cmd {
	case "ceems_exporter":
		c.register(fs, "", &c.Exporter)
	case "prometheus_sim":
		c.register(fs, "", &c.TSDB, &c.Thanos, &c.Cluster.Name)
		// The scraper presents the secret the exporters check.
		c.register(fs, "scrape-", &c.Exporter.BasicAuthUser, &c.Exporter.BasicAuthPassword)
	case "ceems_api_server": // and the emissions section, from the file only
		c.register(fs, "", &c.APIServer, &c.Cluster)
	case "ceems_lb":
		// R and W are the keys the ring behind the LB is built from, so the
		// failover budget R-W cannot disagree with it.
		c.register(fs, "", &c.LB, &c.Ring.ReplicationFactor, &c.Ring.WriteQuorum)
	case "cluster_sim":
		// Every section an in-process role reads (see its README for what
		// none of them does); what was a flag before the file covered it
		// keeps its name.
		c.register(fs, "prom-", &c.TSDB.Listen)
		c.register(fs, "api-", &c.APIServer.Listen)
		c.register(fs, "", &c.Ring, &c.TSDB.WALDir,
			&c.TSDB.RemoteWrite, &c.TSDB.OOOWindow, &c.TSDB.SlowQueryThreshold, &c.TSDB.PprofAddr)
	default:
		panic("config: unknown command " + cmd)
	}
}

// register declares on fs one flag per setting found under the targets —
// each a pointer to a section of c (all of its fields) or to one field —
// named prefix + the field's flag name, defaulting to the field's current
// value.
func (c *Config) register(fs *flag.FlagSet, prefix string, targets ...any) {
	leaves := c.leaves()
	for _, t := range targets {
		tv := reflect.ValueOf(t)
		lo := tv.Pointer()
		hi, n := lo+tv.Type().Elem().Size(), 0
		for _, l := range leaves {
			if at := l.v.Addr().Pointer(); at < lo || at >= hi {
				continue
			}
			n++
			name := prefix + l.flag
			switch p := l.v.Addr().Interface().(type) {
			case *string:
				fs.StringVar(p, name, *p, l.help)
			case *int:
				fs.IntVar(p, name, *p, l.help)
			case *int64:
				fs.Int64Var(p, name, *p, l.help)
			case *float64:
				fs.Float64Var(p, name, *p, l.help)
			case *bool:
				fs.BoolVar(p, name, *p, l.help)
			case *time.Duration:
				fs.DurationVar(p, name, *p, l.help)
			case *[]string:
				fs.Var((*csv)(p), name, l.help)
			}
		}
		if n == 0 {
			panic(fmt.Sprintf("config: register: %T does not point into this Config", t))
		}
	}
}
