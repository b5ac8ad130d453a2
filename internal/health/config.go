package health

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// ConfigSchema identifies the daemon config-file JSON layout.
const ConfigSchema = "frhealthd/config/v1"

// Duration is a time.Duration that marshals as the string form Go's
// flag package accepts ("2s", "150ms"), so config files read like
// command lines.
type Duration struct{ time.Duration }

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("health: duration %q: %w", s, err)
	}
	d.Duration = v
	return nil
}

// ClusterConfig names one cluster mount the daemon tracks.
type ClusterConfig struct {
	// Name is the cluster's identity in the API and metric labels; it
	// must be unique and URL-safe (letters, digits, '-', '_', '.').
	Name string `json:"name"`
	// Dir is the cluster's image directory (the frmkfs/faultyrank
	// hand-off format).
	Dir string `json:"dir"`
	// State, when non-empty, is the cluster's durable tracker-state
	// directory: the daemon resumes from its snapshot on start and saves
	// after every round.
	State string `json:"state,omitempty"`
	// RescanEvery, when > 0, forces a full scrub (Tracker.Rescan) every
	// N completed rounds — the defence against silent corruption the
	// change feed cannot see.
	RescanEvery int `json:"rescan_every,omitempty"`
}

// Config is the daemon's file-backed configuration.
type Config struct {
	Schema string `json:"schema"`
	// Listen is the HTTP address ("" lets the flag's default stand).
	Listen string `json:"listen,omitempty"`
	// Rules is the path to a grading rules file ("" = built-in policy).
	Rules string `json:"rules,omitempty"`
	// Interval between watch rounds per cluster (zero = one second,
	// Tracker.Watch's default).
	Interval Duration `json:"interval,omitempty"`
	// Workers bounds how many clusters run a check round at once on the
	// shared pool (0 = as many as there are clusters, at most
	// GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// History is the per-cluster round-history ring size (0 = default).
	History  int             `json:"history,omitempty"`
	Clusters []ClusterConfig `json:"clusters"`
}

// validName reports whether a cluster name is usable as an API path
// segment and a metric label value without escaping.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '-' || c == '_' || c == '.' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// Validate checks the structural invariants of a loaded config.
func (c *Config) Validate() error {
	if c.Schema != ConfigSchema {
		return fmt.Errorf("health: config schema %q (want %q)", c.Schema, ConfigSchema)
	}
	if len(c.Clusters) == 0 {
		return fmt.Errorf("health: config names no clusters")
	}
	if c.Workers < 0 {
		return fmt.Errorf("health: workers %d (want >= 0)", c.Workers)
	}
	seen := make(map[string]bool, len(c.Clusters))
	for i, cl := range c.Clusters {
		if !validName(cl.Name) {
			return fmt.Errorf("health: cluster %d name %q (want non-empty [a-zA-Z0-9._-])", i, cl.Name)
		}
		if seen[cl.Name] {
			return fmt.Errorf("health: duplicate cluster name %q", cl.Name)
		}
		seen[cl.Name] = true
		if strings.TrimSpace(cl.Dir) == "" {
			return fmt.Errorf("health: cluster %q has no image directory", cl.Name)
		}
		if cl.RescanEvery < 0 {
			return fmt.Errorf("health: cluster %q: rescan_every %d (want >= 0)", cl.Name, cl.RescanEvery)
		}
	}
	return nil
}

// LoadConfig reads and validates a daemon config file.
func LoadConfig(path string) (*Config, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("health: config: %w", err)
	}
	var c Config
	if err := json.Unmarshal(blob, &c); err != nil {
		return nil, fmt.Errorf("health: config %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return &c, nil
}
