package cliutil

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"

	gbj "repro"
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

// recorder logs the setters Apply drives and passes each on to a real
// engine, whose own range checks are the ones the tools enforce.
type recorder struct {
	*gbj.Engine
	calls []string
}

func (r *recorder) log(format string, args ...any) {
	r.calls = append(r.calls, fmt.Sprintf(format, args...))
}
func (r *recorder) SetParallelism(n int)    { r.log("parallelism=%d", n); r.Engine.SetParallelism(n) }
func (r *recorder) SetVectorize(on bool)    { r.log("vectorize=%t", on); r.Engine.SetVectorize(on) }
func (r *recorder) SetMemoryBudget(b int64) { r.log("mem-budget=%d", b); r.Engine.SetMemoryBudget(b) }
func (r *recorder) SetSpillDir(dir string)  { r.log("spill-dir=%s", dir); r.Engine.SetSpillDir(dir) }
func (r *recorder) SetNodes(n int) error    { r.log("nodes=%d", n); return r.Engine.SetNodes(n) }
func (r *recorder) SetLinkRetries(n int) error {
	r.log("link-retries=%d", n)
	return r.Engine.SetLinkRetries(n)
}

// TestEngineFlags drives Register → Apply the way the tools do: each
// registers its own subset with its own defaults, bad values are rejected
// (never clamped) with the flag named, and only registered knobs reach the
// engine. The range rules are the engine setters' own; -parallelism's is
// the one the tools add.
func TestEngineFlags(t *testing.T) {
	all := map[string]string{
		"parallelism": "", "vectorize": "", "nodes": "",
		"link-retries": "", "mem-budget": "", "spill-dir": "",
	}
	server := map[string]string{"parallelism": "workers per query", "vectorize": "", "mem-budget": "", "spill-dir": ""}
	type testCase struct {
		name     string
		defaults EngineFlags
		help     map[string]string
		args     []string
		parseErr bool
		reject   string // substring of Apply's error; "" = valid
		applied  string // space-joined setter log; "" = not checked
	}
	tests := []testCase{
		{name: "defaults", defaults: EngineFlags{Nodes: 1}, help: all,
			applied: "parallelism=0 vectorize=false mem-budget=0 spill-dir= nodes=1 link-retries=0"},
		{name: "bench defaults", defaults: EngineFlags{Nodes: 4, LinkRetries: 8}, help: all,
			applied: "parallelism=0 vectorize=false mem-budget=0 spill-dir= nodes=4 link-retries=8"},
		{name: "all set", defaults: EngineFlags{Nodes: 1}, help: all,
			args:    []string{"-parallelism", "-1", "-vectorize", "-nodes", "3", "-link-retries", "2", "-mem-budget", "65536", "-spill-dir", "/tmp/x"},
			applied: "parallelism=-1 vectorize=true mem-budget=65536 spill-dir=/tmp/x nodes=3 link-retries=2"},
		{name: "server subset", help: server, args: []string{"-parallelism", "4"},
			applied: "parallelism=4 vectorize=false mem-budget=0 spill-dir="},
		{name: "server has no -nodes", help: server, args: []string{"-nodes", "2"}, parseErr: true},
		{name: "parallelism -2", defaults: EngineFlags{Nodes: 1}, help: all, args: []string{"-parallelism", "-2"}, reject: "-parallelism"},
		{name: "first rejection wins", defaults: EngineFlags{Nodes: 1}, help: all, args: []string{"-nodes", "0", "-parallelism", "-9"}, reject: "-parallelism"},
	}
	// Every value each setter rejects, and some it accepts.
	for _, r := range []struct {
		flag, reject string
		bad, good    []int
	}{
		{"nodes", "-nodes", []int{-1, 0}, []int{1, 2, 3, 8, 64}},               // node counts need not be powers of two
		{"link-retries", "-link-retries", []int{-100, -1}, []int{0, 1, 3, 64}}, // no "unlimited" sentinel
	} {
		for _, v := range r.bad {
			tests = append(tests, testCase{name: fmt.Sprintf("%s %d", r.flag, v), defaults: EngineFlags{Nodes: 1}, help: all,
				args: []string{"-" + r.flag, fmt.Sprint(v)}, reject: r.reject})
		}
		for _, v := range r.good {
			tests = append(tests, testCase{name: fmt.Sprintf("%s %d", r.flag, v), defaults: EngineFlags{Nodes: 1}, help: all,
				args: []string{"-" + r.flag, fmt.Sprint(v)}})
		}
	}
	// The shard count is the cluster's own: a tool given -shards, at any
	// value, fails to parse it (exit 2) instead of ignoring it.
	for _, v := range []int{-4, -1, 0, 1, 2, 3, 4, 6, 7, 12, 64} {
		tests = append(tests, testCase{name: fmt.Sprintf("shards %d", v), defaults: EngineFlags{Nodes: 1}, help: all,
			args: []string{"-shards", fmt.Sprint(v)}, parseErr: true})
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
			e := &recorder{Engine: gbj.New()}
			err := f.Apply(e)
			if tt.reject == "" && err != nil {
				t.Fatalf("Apply() = %v, want ok", err)
			}
			if tt.reject != "" {
				if err == nil || !strings.Contains(err.Error(), tt.reject) {
					t.Fatalf("Apply() = %v, want a rejection mentioning %q", err, tt.reject)
				}
				return
			}
			if got := strings.Join(e.calls, " "); tt.applied != "" && got != tt.applied {
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
