package cliutil

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestValidateParallelism(t *testing.T) {
	tests := []struct {
		n  int
		ok bool
	}{
		{-100, false},
		{-2, false},
		{-1, true}, // one worker per CPU
		{0, true},  // serial
		{1, true},
		{8, true},
		{1024, true},
	}
	for _, tt := range tests {
		err := ValidateParallelism(tt.n)
		if (err == nil) != tt.ok {
			t.Errorf("ValidateParallelism(%d) = %v, want ok=%v", tt.n, err, tt.ok)
		}
	}
}

func TestValidateNodes(t *testing.T) {
	tests := []struct {
		n  int
		ok bool
	}{
		{-1, false},
		{0, false},
		{1, true},
		{2, true},
		{3, true}, // node counts need not be powers of two
		{8, true},
		{64, true},
	}
	for _, tt := range tests {
		err := ValidateNodes(tt.n)
		if (err == nil) != tt.ok {
			t.Errorf("ValidateNodes(%d) = %v, want ok=%v", tt.n, err, tt.ok)
		}
	}
}

func TestValidateShards(t *testing.T) {
	tests := []struct {
		s  int
		ok bool
	}{
		{-4, false},
		{-1, false},
		{0, true}, // default: one shard per node
		{1, true},
		{2, true},
		{3, false},
		{4, true},
		{6, false},
		{7, false},
		{12, false},
		{64, true},
	}
	for _, tt := range tests {
		err := ValidateShards(tt.s)
		if (err == nil) != tt.ok {
			t.Errorf("ValidateShards(%d) = %v, want ok=%v", tt.s, err, tt.ok)
		}
	}
}

func TestValidateLinkRetries(t *testing.T) {
	tests := []struct {
		n  int
		ok bool
	}{
		{-100, false},
		{-1, false}, // no "unlimited" sentinel: rejected, not clamped
		{0, true},   // fail fast
		{1, true},
		{3, true},
		{64, true},
	}
	for _, tt := range tests {
		err := ValidateLinkRetries(tt.n)
		if (err == nil) != tt.ok {
			t.Errorf("ValidateLinkRetries(%d) = %v, want ok=%v", tt.n, err, tt.ok)
		}
	}
}

func TestValidateLintOutput(t *testing.T) {
	tests := []struct {
		jsonOut, list bool
		ok            bool
	}{
		{false, false, true},
		{true, false, true},
		{false, true, true},
		{true, true, false},
	}
	for _, tt := range tests {
		err := ValidateLintOutput(tt.jsonOut, tt.list)
		if (err == nil) != tt.ok {
			t.Errorf("ValidateLintOutput(%v, %v) = %v, want ok=%v", tt.jsonOut, tt.list, err, tt.ok)
		}
	}
}

func TestValidateAddr(t *testing.T) {
	tests := []struct {
		addr string
		ok   bool
	}{
		{"", false},
		{"7432", false},      // bare port: would resolve as a hostname
		{"localhost", false}, // bare host: no port
		{"host:port:extra", false},
		{":notaport", false},
		{":70000", false}, // port out of range
		{":-1", false},
		{":7432", true}, // all interfaces
		{":0", true},    // kernel-assigned port
		{"127.0.0.1:7432", true},
		{"localhost:7432", true},
		{"[::1]:7432", true},
	}
	for _, tt := range tests {
		err := ValidateAddr(tt.addr)
		if (err == nil) != tt.ok {
			t.Errorf("ValidateAddr(%q) = %v, want ok=%v", tt.addr, err, tt.ok)
		}
	}
}

func TestValidatePoolBytes(t *testing.T) {
	tests := []struct {
		b  int64
		ok bool
	}{
		{-1 << 30, false},
		{-1, false}, // rejected, not clamped to "admission off"
		{0, true},   // admission control off
		{1, true},
		{1 << 20, true},
		{1 << 40, true},
	}
	for _, tt := range tests {
		err := ValidatePoolBytes(tt.b)
		if (err == nil) != tt.ok {
			t.Errorf("ValidatePoolBytes(%d) = %v, want ok=%v", tt.b, err, tt.ok)
		}
	}
}

func TestValidateMaxSessions(t *testing.T) {
	tests := []struct {
		n  int
		ok bool
	}{
		{-100, false},
		{-1, false}, // no "unbounded" sentinel: 0 already means that
		{0, true},   // unbounded
		{1, true},
		{64, true},
		{4096, true},
	}
	for _, tt := range tests {
		err := ValidateMaxSessions(tt.n)
		if (err == nil) != tt.ok {
			t.Errorf("ValidateMaxSessions(%d) = %v, want ok=%v", tt.n, err, tt.ok)
		}
	}
}

// fakeEngine records the setters Apply drives, rejecting what the real
// engine rejects.
type fakeEngine struct{ calls []string }

func (e *fakeEngine) log(format string, args ...any) {
	e.calls = append(e.calls, fmt.Sprintf(format, args...))
}
func (e *fakeEngine) SetParallelism(n int)     { e.log("parallelism=%d", n) }
func (e *fakeEngine) SetVectorize(on bool)     { e.log("vectorize=%t", on) }
func (e *fakeEngine) SetMemoryBudget(b int64)  { e.log("mem-budget=%d", b) }
func (e *fakeEngine) SetSpillDir(dir string)   { e.log("spill-dir=%s", dir) }
func (e *fakeEngine) SetShards(n int) error    { e.log("shards=%d", n); return nil }
func (e *fakeEngine) SetLinkRetries(int) error { return fmt.Errorf("link retries rejected") }
func (e *fakeEngine) SetNodes(n int) error     { e.log("nodes=%d", n); return nil }

// TestEngineFlags drives Register → Validate → Apply the way the tools do:
// each registers its own subset with its own defaults, bad values are
// rejected (never clamped), and only registered knobs reach the engine.
func TestEngineFlags(t *testing.T) {
	all := map[string]string{
		"parallelism": "", "vectorize": "", "nodes": "", "shards": "",
		"link-retries": "", "mem-budget": "", "spill-dir": "",
	}
	server := map[string]string{"parallelism": "workers per query", "vectorize": "", "mem-budget": "", "spill-dir": ""}
	tests := []struct {
		name     string
		defaults EngineFlags
		help     map[string]string
		args     []string
		parseErr bool
		reject   string // substring of Validate's error; "" = valid
		applied  string // space-joined setter log; "" = not checked
	}{
		{name: "defaults", defaults: EngineFlags{Nodes: 1}, help: all,
			applied: "parallelism=0 vectorize=false mem-budget=0 spill-dir= nodes=1 shards=0"},
		{name: "bench defaults", defaults: EngineFlags{Nodes: 4, LinkRetries: 8}, help: all,
			applied: "parallelism=0 vectorize=false mem-budget=0 spill-dir= nodes=4 shards=0"},
		{name: "all set", defaults: EngineFlags{Nodes: 1}, help: all,
			args:    []string{"-parallelism", "-1", "-vectorize", "-nodes", "3", "-shards", "8", "-mem-budget", "65536", "-spill-dir", "/tmp/x"},
			applied: "parallelism=-1 vectorize=true mem-budget=65536 spill-dir=/tmp/x nodes=3 shards=8"},
		{name: "server subset", help: server, args: []string{"-parallelism", "4"},
			applied: "parallelism=4 vectorize=false mem-budget=0 spill-dir="},
		{name: "server has no -nodes", help: server, args: []string{"-nodes", "2"}, parseErr: true},
		{name: "parallelism -2", defaults: EngineFlags{Nodes: 1}, help: all, args: []string{"-parallelism", "-2"}, reject: "-parallelism"},
		{name: "nodes 0", defaults: EngineFlags{Nodes: 1}, help: all, args: []string{"-nodes", "0"}, reject: "-nodes"},
		{name: "shards 6", defaults: EngineFlags{Nodes: 1}, help: all, args: []string{"-shards", "6"}, reject: "power of two"},
		{name: "link-retries -1", defaults: EngineFlags{Nodes: 1}, help: all, args: []string{"-link-retries", "-1"}, reject: "-link-retries"},
		{name: "first rejection wins", defaults: EngineFlags{Nodes: 1}, help: all, args: []string{"-shards", "3", "-parallelism", "-9"}, reject: "-parallelism"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f := tt.defaults
			fs := flag.NewFlagSet("tool", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f.Register(fs, tt.help)
			if err := fs.Parse(tt.args); (err != nil) != tt.parseErr {
				t.Fatalf("Parse(%v) = %v, want error=%t", tt.args, err, tt.parseErr)
			}
			if tt.parseErr {
				return
			}
			err := f.Validate()
			if tt.reject == "" && err != nil {
				t.Fatalf("Validate() = %v, want ok", err)
			}
			if tt.reject != "" {
				if err == nil || !strings.Contains(err.Error(), tt.reject) {
					t.Fatalf("Validate() = %v, want a rejection mentioning %q", err, tt.reject)
				}
				return
			}
			e := &fakeEngine{}
			err = f.Apply(e)
			if _, has := tt.help["link-retries"]; has != (err != nil) {
				t.Fatalf("Apply() = %v; the engine's own rejection must surface exactly when -link-retries is registered", err)
			}
			if got := strings.Join(e.calls, " "); got != tt.applied {
				t.Errorf("applied %q, want %q", got, tt.applied)
			}
		})
	}
	// Help text: the tool's own where given, the shared default for "".
	var f EngineFlags
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	f.Register(fs, server)
	if got := fs.Lookup("parallelism").Usage; got != "workers per query" {
		t.Errorf("-parallelism usage = %q, want the tool's override", got)
	}
	if got := fs.Lookup("vectorize").Usage; got != engineFlagHelp["vectorize"] {
		t.Errorf("-vectorize usage = %q, want the shared default", got)
	}
}
