package gbj

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestConfigValidate drives every field's out-of-range values through
// Validate, each rejected by name, and some values it accepts, the zero
// Config among them. Configure applies the same rule and leaves the engine
// as it was on a rejection.
func TestConfigValidate(t *testing.T) {
	bad := []struct {
		field string
		cfg   Config
	}{
		{"Mode", Config{Mode: ModeNever + 1}},
		{"Parallelism", Config{Parallelism: -2}},
		{"Parallelism", Config{Parallelism: -100}},
		{"Nodes", Config{Nodes: -1}},
		{"DistStrategy", Config{DistStrategy: DistLazy + 1}},
		{"LinkRetries", Config{LinkRetries: -1}},
		{"MemoryBudget", Config{MemoryBudget: -5}},
		{"PlanCacheSize", Config{PlanCacheSize: -1}},
	}
	e := New()
	for _, b := range bad {
		err := b.cfg.Validate()
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != b.field || !strings.Contains(err.Error(), "Config."+b.field) {
			t.Errorf("%+v: Validate() = %v, want a *ConfigError naming %s", b.cfg, err, b.field)
		}
		if err := e.Configure(b.cfg); err == nil {
			t.Errorf("%+v: Configure accepted it", b.cfg)
		}
	}
	if e.Config() != (Config{}) {
		t.Errorf("rejected configurations changed the engine's: %+v", e.Config())
	}
	good := []Config{
		{},
		{Mode: ModeNever, Parallelism: -1, Vectorize: true, Nodes: 1, DistStrategy: DistLazy},
		{Parallelism: 8, Nodes: 4, DistStrategy: DistEager, LinkRetries: 3},
		{MemoryBudget: 1 << 20, SpillDir: t.TempDir(), PlanCacheSize: 1, Clock: obs.NewFakeClock(time.Unix(0, 0), time.Millisecond)},
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%+v: Validate() = %v, want ok", cfg, err)
		}
		mustConfigure(t, e, cfg)
		if e.Config() != cfg {
			t.Errorf("Config() = %+v after Configure(%+v)", e.Config(), cfg)
		}
	}
}

// TestEngineSetters is the guard on the engine's configuration surface:
// Config and Configure are the one way to set it, and the only Engine
// methods named Set* are the three forwarders benchmark/run.go still calls.
func TestEngineSetters(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var setters []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !strings.HasPrefix(fn.Name.Name, "Set") {
				continue
			}
			if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
				if id, ok := star.X.(*ast.Ident); ok && id.Name == "Engine" {
					setters = append(setters, fn.Name.Name)
				}
			}
		}
	}
	slices.Sort(setters)
	if want := []string{"SetNodes", "SetParallelism", "SetVectorize"}; !slices.Equal(setters, want) {
		t.Errorf("*Engine setters %v, want only the benchmark's forwarders %v: configure the engine through Config", setters, want)
	}
}
