// Package cli holds the helpers shared by the command-line tools and the
// job server (machine specs, sizes, scenario files and atomic file
// writes), kept out of package main so they are testable.
package cli

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"oltpsim/internal/core"
	"oltpsim/internal/scenario"
)

// ParseSize parses cache sizes like "8M", "1.25M", "512K", or plain bytes.
func ParseSize(s string) (int64, error) {
	s = strings.ToUpper(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "M"):
		mult = core.MB
		s = strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"):
		mult = core.KB
		s = strings.TrimSuffix(s, "K")
	}
	var v float64
	if _, err := fmt.Sscanf(s, "%g", &v); err != nil || !(v*float64(mult) >= 1) {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return int64(v * float64(mult)), nil
}

// MachineSpec is the command-line description of a machine. The JSON tags
// are the oltpserver job-spec wire format, so a sweep submitted over HTTP
// resolves through exactly the same Build path as the CLI flags.
type MachineSpec struct {
	Procs   int    `json:"procs"`
	Level   string `json:"level"` // cons|base|l2|l2mc|full
	L2      string `json:"l2"`    // e.g. "8M"
	Assoc   int    `json:"assoc"`
	DRAM    bool   `json:"dram,omitempty"`
	OOO     bool   `json:"ooo,omitempty"`
	RACSize string `json:"rac,omitempty"` // empty = no RAC
	Repl    bool   `json:"repl,omitempty"`
	Cores   int    `json:"cores,omitempty"` // cores per chip; 0 keeps the paper's 1
	// Name, when non-empty, overrides the derived configuration name (the
	// bar label in rendered figures).
	Name string `json:"label,omitempty"`
}

// Build resolves a MachineSpec into a core.Config.
func Build(spec MachineSpec) (core.Config, error) {
	size, err := ParseSize(spec.L2)
	if err != nil {
		return core.Config{}, err
	}
	var cfg core.Config
	switch strings.ToLower(spec.Level) {
	case "cons":
		cfg = core.ConservativeConfig(spec.Procs)
		cfg.L2SizeBytes, cfg.L2Assoc = size, spec.Assoc
	case "base":
		cfg = core.BaseConfig(spec.Procs, size, spec.Assoc)
	case "l2":
		tech := core.OnChipSRAM
		if spec.DRAM {
			tech = core.OnChipDRAM
		}
		cfg = core.IntegratedL2Config(spec.Procs, size, spec.Assoc, tech)
	case "l2mc":
		cfg = core.L2MCConfig(spec.Procs, size, spec.Assoc)
	case "full":
		cfg = core.FullConfig(spec.Procs, size, spec.Assoc)
	default:
		return core.Config{}, fmt.Errorf("unknown level %q", spec.Level)
	}
	cfg.OutOfOrder = spec.OOO
	if spec.RACSize != "" {
		if cfg.RACBytes, err = ParseSize(spec.RACSize); err != nil {
			return core.Config{}, err
		}
	}
	cfg.CodeReplication = spec.Repl
	if spec.Cores != 0 {
		cfg.CoresPerChip = spec.Cores
	}
	if spec.Name != "" {
		cfg.Name = spec.Name
	}
	if err := cfg.Validate(); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// LoadSchedule decodes and compiles a scenario profile file.
func LoadSchedule(path string) (*scenario.Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := scenario.DecodeProfile(f)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", path, err)
	}
	return p.Compile()
}

// WriteFileAtomic replaces the file at path with data through a temp file
// beside it (path + ".tmp") and a rename, so a process killed mid-write
// leaves either the old content or the new, never a torn file. The temp
// file is fsynced before the rename and the directory after it, so the
// either-old-or-new guarantee covers OS crashes and power loss, not just
// process kills — rename-before-data-flush could otherwise surface an
// empty or torn file.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry survives an OS crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
