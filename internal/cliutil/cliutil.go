// Package cliutil declares and validates the flags shared by the gbj
// command-line tools (gbj-shell, gbj-explain, gbj-bench, gbj-server). The
// tools reject bad topology and worker counts up front with a clear message
// instead of clamping silently — a typo like -nodes 0 or -parallelism -4 would
// otherwise run a subtly different experiment than the one asked for.
package cliutil

import (
	"flag"
	"fmt"
	"net"
	"net/url"
	"strconv"
)

// EngineFlags is the one declaration of the engine-knob flags the tools
// share: Register, then Apply. The field values at Register time are
// the flag defaults (gbj-bench defaults to a 4-node cluster, the others to
// single-site), and each tool registers only the knobs it has.
type EngineFlags struct {
	Parallelism int
	Vectorize   bool
	Nodes       int
	LinkRetries int
	MemBudget   int64
	SpillDir    string

	registered map[string]string
}

// engineFlagHelp is the help text of a flag registered with "".
var engineFlagHelp = map[string]string{
	"parallelism":  "executor workers (0=serial, -1=one per CPU)",
	"vectorize":    "read stored tables as columnar batches (same rows, same order)",
	"nodes":        "simulated cluster size (1 = single-site)",
	"link-retries": "per-shipment link retry budget for distributed runs (0 = fail fast)",
	"mem-budget":   "per-query operator-state byte cap (0 = unlimited)",
	"spill-dir":    "directory for spill temp files; with a memory budget set, over-budget operators spill to disk instead of degrading (empty = spilling off)",
}

// Register declares on fs the flags named by help's keys — -parallelism,
// -vectorize, -nodes, -link-retries, -mem-budget, -spill-dir —
// with the mapped help text, or the shared default text for "". An unknown
// name is a programming error and panics.
func (f *EngineFlags) Register(fs *flag.FlagSet, help map[string]string) {
	f.registered = help
	for name, text := range help {
		if text == "" {
			text = engineFlagHelp[name]
		}
		switch name {
		case "parallelism":
			fs.IntVar(&f.Parallelism, name, f.Parallelism, text)
		case "vectorize":
			fs.BoolVar(&f.Vectorize, name, f.Vectorize, text)
		case "nodes":
			fs.IntVar(&f.Nodes, name, f.Nodes, text)
		case "link-retries":
			fs.IntVar(&f.LinkRetries, name, f.LinkRetries, text)
		case "mem-budget":
			fs.Int64Var(&f.MemBudget, name, f.MemBudget, text)
		case "spill-dir":
			fs.StringVar(&f.SpillDir, name, f.SpillDir, text)
		default:
			panic("cliutil: unknown engine flag -" + name)
		}
	}
}

func (f *EngineFlags) has(name string) bool {
	_, ok := f.registered[name]
	return ok
}

// Engine is the setter surface of gbj.Engine that Apply drives (an
// interface so this package stays importable by the tools' smallest
// dependencies).
type Engine interface {
	SetParallelism(int)
	SetVectorize(bool)
	SetNodes(int) error
	SetLinkRetries(int) error
	SetMemoryBudget(int64)
	SetSpillDir(string)
}

// Apply sets every registered knob on the engine and returns the first
// rejection, naming its flag: -parallelism's CLI rule (ValidateParallelism)
// or the range check of the engine's own setter, the one copy of each rule.
// The tools print it and exit 2.
func (f *EngineFlags) Apply(e Engine) error {
	if f.has("parallelism") {
		if err := ValidateParallelism(f.Parallelism); err != nil {
			return err
		}
		e.SetParallelism(f.Parallelism)
	}
	if f.has("vectorize") {
		e.SetVectorize(f.Vectorize)
	}
	if f.has("mem-budget") {
		e.SetMemoryBudget(f.MemBudget)
	}
	if f.has("spill-dir") {
		e.SetSpillDir(f.SpillDir)
	}
	for _, set := range []struct {
		name string
		fn   func(int) error
		v    int
	}{
		{"nodes", e.SetNodes, f.Nodes},
		{"link-retries", e.SetLinkRetries, f.LinkRetries},
	} {
		if f.has(set.name) {
			if err := set.fn(set.v); err != nil {
				return fmt.Errorf("-%s: %w", set.name, err)
			}
		}
	}
	return nil
}

// ValidateParallelism checks an executor worker count: 0 runs serial, a
// positive count runs that many workers, and -1 is the documented "one
// worker per CPU" sentinel. Any other negative value is rejected — the one
// rule only the tools keep, since the engine gives every negative count a
// meaning.
func ValidateParallelism(n int) error {
	if n < -1 {
		return fmt.Errorf("-parallelism must be -1 (one worker per CPU), 0 (serial), or a positive worker count; got %d", n)
	}
	return nil
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
