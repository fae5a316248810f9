package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"

	gbj "repro"
)

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

// TestEngineFlags drives Register → Parse → Validate the way the tools do:
// each registers its own subset with its own default Config, a flag lands
// on its Config field, bad values are rejected (never clamped) by
// gbj.Config.Validate with the flag named, and unregistered flags fail to
// parse.
func TestEngineFlags(t *testing.T) {
	all := map[string]string{
		"parallelism": "", "vectorize": "", "nodes": "",
		"link-retries": "", "mem-budget": "", "spill-dir": "",
	}
	server := map[string]string{"parallelism": "workers per query", "vectorize": "", "mem-budget": "", "spill-dir": ""}
	type testCase struct {
		name     string
		defaults gbj.Config
		help     map[string]string
		args     []string
		parseErr bool
		reject   string     // substring of Validate's error; "" = valid
		want     gbj.Config // the validated Config of a valid case
	}
	tests := []testCase{
		{name: "defaults", help: all},
		{name: "bench defaults", defaults: gbj.Config{Nodes: 4, LinkRetries: 8}, help: all,
			want: gbj.Config{Nodes: 4, LinkRetries: 8}},
		{name: "all set", help: all,
			args: []string{"-parallelism", "-1", "-vectorize", "-nodes", "3", "-link-retries", "2", "-mem-budget", "65536", "-spill-dir", "/tmp/x"},
			want: gbj.Config{Parallelism: -1, Vectorize: true, Nodes: 3, LinkRetries: 2, MemoryBudget: 65536, SpillDir: "/tmp/x"}},
		{name: "server subset", help: server, args: []string{"-parallelism", "4"}, want: gbj.Config{Parallelism: 4}},
		{name: "server has no -nodes", help: server, args: []string{"-nodes", "2"}, parseErr: true},
		{name: "first rejection wins", help: all, args: []string{"-nodes", "-1", "-parallelism", "-9"}, reject: "-parallelism"},
	}
	// Every value Validate rejects, and some it accepts, per numeric flag.
	for _, r := range []struct {
		flag      string
		bad, good []int
		set       func(*gbj.Config, int)
	}{
		{"parallelism", []int{-100, -2}, []int{-1, 0, 1, 8, 1024}, // -1 is one worker per CPU
			func(c *gbj.Config, v int) { c.Parallelism = v }},
		{"nodes", []int{-2, -1}, []int{0, 1, 2, 3, 8, 64}, // 0 and 1 are single-site; counts need not be powers of two
			func(c *gbj.Config, v int) { c.Nodes = v }},
		{"link-retries", []int{-100, -1}, []int{0, 1, 3, 64}, // no "unlimited" sentinel
			func(c *gbj.Config, v int) { c.LinkRetries = v }},
		{"mem-budget", []int{-5, -1}, []int{0, 1, 65536}, // 0 is unlimited
			func(c *gbj.Config, v int) { c.MemoryBudget = int64(v) }},
	} {
		for _, v := range r.bad {
			tests = append(tests, testCase{name: fmt.Sprintf("%s %d", r.flag, v), help: all,
				args: []string{"-" + r.flag, fmt.Sprint(v)}, reject: "-" + r.flag})
		}
		for _, v := range r.good {
			var want gbj.Config
			r.set(&want, v)
			tests = append(tests, testCase{name: fmt.Sprintf("%s %d", r.flag, v), help: all,
				args: []string{"-" + r.flag, fmt.Sprint(v)}, want: want})
		}
	}
	// The shard count is the cluster's own: a tool given -shards, at any
	// value, fails to parse it (exit 2) instead of ignoring it.
	for _, v := range []int{-4, -1, 0, 1, 2, 3, 4, 6, 7, 12, 64} {
		tests = append(tests, testCase{name: fmt.Sprintf("shards %d", v), help: all,
			args: []string{"-shards", fmt.Sprint(v)}, parseErr: true})
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f := EngineFlags{Config: tt.defaults}
			fs := flag.NewFlagSet("tool", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f.Register(fs, tt.help)
			if err := fs.Parse(tt.args); (err != nil) != tt.parseErr {
				t.Fatalf("Parse(%v) = %v, want error=%t", tt.args, err, tt.parseErr)
			}
			if tt.parseErr {
				return
			}
			cfg, err := f.Validate()
			if tt.reject != "" {
				var ce *gbj.ConfigError
				if err == nil || !strings.HasPrefix(err.Error(), tt.reject+": ") || !errors.As(err, &ce) {
					t.Fatalf("Validate() = %v, want gbj.Config.Validate's rejection behind %q", err, tt.reject)
				}
				return
			}
			if err != nil {
				t.Fatalf("Validate() = %v, want ok", err)
			}
			if cfg != tt.want {
				t.Errorf("Validate() = %+v, want %+v", cfg, tt.want)
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
