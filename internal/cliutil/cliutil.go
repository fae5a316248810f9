// Package cliutil declares and validates the flags shared by the gbj
// command-line tools (gbj-shell, gbj-explain, gbj-bench, gbj-server). The
// tools reject bad topology, worker counts and budgets up front with a clear
// message instead of clamping silently — a typo like -nodes -2 or
// -parallelism -4 would otherwise run a subtly different experiment than the
// one asked for.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/url"
	"strconv"

	gbj "repro"
)

// EngineFlags is the one declaration of the engine-knob flags the tools
// share: set Config to the tool's defaults (gbj-bench's is a 4-node
// cluster, the others' the zero Config), Register the knobs the tool has,
// parse, then Validate. Each flag binds straight onto its Config field.
type EngineFlags struct {
	Config gbj.Config

	flags map[string]string // Config field name → its registered flag's name
}

// engineFlagHelp is the help text of a flag registered with "".
var engineFlagHelp = map[string]string{
	"parallelism":  "executor workers (0=serial, -1=one per CPU)",
	"vectorize":    "read stored tables as columnar batches (same rows, same order)",
	"nodes":        "simulated cluster size (0 or 1 = single-site)",
	"link-retries": "per-shipment link retry budget for distributed runs (0 = fail fast)",
	"mem-budget":   "per-query operator-state byte cap (0 = unlimited)",
	"spill-dir":    "directory for spill temp files; with a memory budget set, over-budget operators spill to disk instead of degrading (empty = spilling off)",
}

// Register declares on fs the flags named by help's keys — -parallelism,
// -vectorize, -nodes, -link-retries, -mem-budget, -spill-dir —
// with the mapped help text, or the shared default text for "". An unknown
// name is a programming error and panics.
func (f *EngineFlags) Register(fs *flag.FlagSet, help map[string]string) {
	f.flags = make(map[string]string, len(help))
	c := &f.Config
	for name, text := range help {
		if text == "" {
			text = engineFlagHelp[name]
		}
		var field string
		switch name {
		case "parallelism":
			field = "Parallelism"
			fs.IntVar(&c.Parallelism, name, c.Parallelism, text)
		case "vectorize":
			field = "Vectorize"
			fs.BoolVar(&c.Vectorize, name, c.Vectorize, text)
		case "nodes":
			field = "Nodes"
			fs.IntVar(&c.Nodes, name, c.Nodes, text)
		case "link-retries":
			field = "LinkRetries"
			fs.IntVar(&c.LinkRetries, name, c.LinkRetries, text)
		case "mem-budget":
			field = "MemoryBudget"
			fs.Int64Var(&c.MemoryBudget, name, c.MemoryBudget, text)
		case "spill-dir":
			field = "SpillDir"
			fs.StringVar(&c.SpillDir, name, c.SpillDir, text)
		default:
			panic("cliutil: unknown engine flag -" + name)
		}
		f.flags[field] = name
	}
}

// Validate returns the parsed Config and gbj.Config.Validate's rejection of
// it, if any, with the flag that set the field named in front — the
// engine's one copy of every range rule, so each tool reports a bad flag
// alike. The tools print it and exit 2.
func (f *EngineFlags) Validate() (gbj.Config, error) {
	err := f.Config.Validate()
	var ce *gbj.ConfigError
	if errors.As(err, &ce) && f.flags[ce.Field] != "" {
		err = fmt.Errorf("-%s: %w", f.flags[ce.Field], err)
	}
	return f.Config, err
}

// ValidateLintOutput checks gbj-lint's output-mode flags: -json emits the
// machine-readable findings report and -list the human-readable analyzer
// catalog; combining them would have to drop one, so the pair is rejected.
func ValidateLintOutput(jsonOut, list bool) error {
	if jsonOut && list {
		return fmt.Errorf("-json and -list are mutually exclusive: the catalog listing has no JSON form")
	}
	return nil
}

// ValidateAddr checks gbj-server's listen address: a host:port pair whose
// port part is non-empty ("127.0.0.1:7432", ":7432", "[::1]:0"). Bare
// ports and bare hosts are rejected, not guessed at — "7432" would
// otherwise resolve as a hostname and fail at bind time with a much less
// helpful message.
func ValidateAddr(addr string) error {
	if addr == "" {
		return fmt.Errorf("-addr must be a host:port listen address, got an empty string")
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("-addr must be a host:port listen address (e.g. 127.0.0.1:7432 or :7432): %w", err)
	}
	_ = host // an empty host means "all interfaces" and is fine
	if port == "" {
		return fmt.Errorf("-addr %q has no port; use host:port (e.g. :7432)", addr)
	}
	if n, err := strconv.Atoi(port); err != nil || n < 0 || n > 65535 {
		return fmt.Errorf("-addr %q has invalid port %q; ports are 0..65535 (0 picks a free port)", addr, port)
	}
	return nil
}

// ValidateServerURL checks a client-side gbj-server base URL (gbj-shell
// -connect): http or https, with an explicit host:port.
// A missing port is rejected, never defaulted — the client guessing 7432
// while the daemon listens elsewhere is a confusing way to find out.
func ValidateServerURL(u string) error {
	parsed, err := url.Parse(u)
	if err != nil {
		return fmt.Errorf("server URL %q: %w", u, err)
	}
	if parsed.Scheme != "http" && parsed.Scheme != "https" {
		return fmt.Errorf("server URL %q: scheme must be http or https", u)
	}
	_, port, err := net.SplitHostPort(parsed.Host)
	if err != nil {
		return fmt.Errorf("server URL %q must include an explicit host:port (e.g. http://127.0.0.1:7432): %w", u, err)
	}
	if n, err := strconv.Atoi(port); err != nil || n < 1 || n > 65535 {
		return fmt.Errorf("server URL %q has invalid port %q; ports are 1..65535", u, port)
	}
	return nil
}
