package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// loader is shared across tests: the source importer's type-checked stdlib
// cache is the expensive part, and it is reusable.
var loader *lint.Loader

func TestMain(m *testing.M) {
	var err error
	loader, err = lint.NewLoader(".")
	if err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func fixture(t *testing.T, name string) string {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	return dir
}

// TestFixture runs every analyzer of the catalog over its fixture,
// testdata/src/<analyzer name>: an analyzer added without one fails here.
func TestFixture(t *testing.T) {
	for _, a := range lint.DefaultAnalyzers() {
		t.Run(a.Name, func(t *testing.T) {
			linttest.Run(t, loader, fixture(t, a.Name), a)
		})
	}
}

// unscoped strips an analyzer's Dirs so it runs on fixtures outside its
// production scope (the same trick linttest.Run uses internally).
func unscoped(a *lint.Analyzer) *lint.Analyzer {
	return &lint.Analyzer{Name: a.Name, Doc: a.Doc, Run: a.Run}
}

// TestIgnoreScopedToAnalyzer pins the suppression semantics: a directive
// silences exactly the analyzer it names. The fixture line triggers
// maprange and nowallclock together; the maprange directive must leave the
// nowallclock finding standing.
func TestIgnoreScopedToAnalyzer(t *testing.T) {
	pkg, err := loader.Load(fixture(t, "ignorescope"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(pkg, []*lint.Analyzer{
		unscoped(lint.MapRangeAnalyzer),
		unscoped(lint.NoWallClockAnalyzer),
	})
	if err != nil {
		t.Fatal(err)
	}
	sawWallClock := false
	for _, d := range diags {
		switch d.Analyzer {
		case "maprange":
			t.Errorf("suppressed maprange finding still reported: %s", d)
		case "nowallclock":
			sawWallClock = true
		case "lintdirective":
			t.Errorf("well-formed directive flagged: %s", d)
		}
	}
	if !sawWallClock {
		t.Error("nowallclock finding missing: the maprange directive suppressed a foreign analyzer")
	}
}

// TestMalformedDirectivesAreFindings pins the directive grammar: a bare
// //lint:ignore, one without a reason, and the blanket "all" form are each
// reported as lintdirective findings — and the blanket form is not honored
// as a suppression.
func TestMalformedDirectivesAreFindings(t *testing.T) {
	pkg, err := loader.Load(fixture(t, "lintdirective"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(pkg, []*lint.Analyzer{unscoped(lint.NoWallClockAnalyzer)})
	if err != nil {
		t.Fatal(err)
	}
	var malformed, blanket, wallclock int
	for _, d := range diags {
		switch {
		case d.Analyzer == "lintdirective" && strings.Contains(d.Message, "malformed"):
			malformed++
		case d.Analyzer == "lintdirective" && strings.Contains(d.Message, "blanket"):
			blanket++
		case d.Analyzer == "nowallclock":
			wallclock++
		}
	}
	if malformed != 2 {
		t.Errorf("want 2 malformed-directive findings (bare, missing reason), got %d:\n%v", malformed, diags)
	}
	if blanket != 1 {
		t.Errorf("want 1 blanket-directive finding, got %d:\n%v", blanket, diags)
	}
	// The //lint:ignore all above a time.Now() must not suppress it; the
	// well-formed nowallclock directive in the same file must.
	if wallclock != 1 {
		t.Errorf("want exactly 1 nowallclock finding (the one under //lint:ignore all), got %d:\n%v", wallclock, diags)
	}
}

// TestAnalyzerScoping pins the directory scoping the driver applies: each
// analyzer names the row-path/planner directories it guards.
func TestAnalyzerScoping(t *testing.T) {
	cases := []struct {
		a       *lint.Analyzer
		in, out string
	}{
		{lint.MapRangeAnalyzer, "internal/exec", "internal/core"},
		{lint.MapRangeAnalyzer, "internal/expr", "cmd/gbj-lint"},
		{lint.NoWallClockAnalyzer, "internal/core", "internal/bench"},
		{lint.NoWallClockAnalyzer, "internal/exec", "internal/sql"},
		{lint.NoWallClockAnalyzer, "internal/obs", "cmd/gbj-bench"},
		{lint.NoWallClockAnalyzer, "internal/dist", "internal/fault"},
		{lint.AccMergeAnalyzer, "internal/expr", "internal/exec"},
		{lint.OptMutationAnalyzer, "internal/exec", ""},
		{lint.NoRawGoAnalyzer, "internal/exec", "internal/fault"},
		{lint.NoRawGoAnalyzer, "internal/dist", "internal/server"},
		{lint.DistLinkAnalyzer, "internal/dist", "internal/exec"},
		{lint.CowDictAnalyzer, "internal/vec", "internal/exec"},
		{lint.GovLoopAnalyzer, "internal/exec", "internal/vec"},
		{lint.BudgetChargeAnalyzer, "internal/exec", "internal/dist"},
		{lint.SelBoundsAnalyzer, "internal/exec", "internal/vec"},
		{lint.SelBoundsAnalyzer, "internal/dist", "internal/core"},
		{lint.SpillCleanupAnalyzer, "internal/exec", "internal/core"},
		{lint.SpillCleanupAnalyzer, "internal/storage", "internal/vec"},
		{lint.SpillCleanupAnalyzer, "cmd/gbj-shell", "internal/sql"},
		{lint.RetryLoopAnalyzer, "internal/dist", "internal/exec"},
		{lint.SessionCtxAnalyzer, "internal/server", "internal/exec"},
	}
	for _, c := range cases {
		if !c.a.AppliesTo(c.in) {
			t.Errorf("%s must apply to %s", c.a.Name, c.in)
		}
		if c.a.AppliesTo(c.out) {
			t.Errorf("%s must not apply to %q", c.a.Name, c.out)
		}
	}
}

// TestRepoClean runs the full analyzer catalog over every package of the
// module and demands zero findings — the same gate "make lint" enforces.
// The engine's conventions (insertion-order slices beside maps, atomics for
// shared counters, pure cost code) must actually hold in the tree.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module against stdlib source")
	}
	dirs, err := lint.ModuleDirs(loader.ModuleRoot)
	if err != nil {
		t.Fatal(err)
	}
	analyzers := lint.DefaultAnalyzers()
	checked := 0
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		diags, err := lint.RunAnalyzers(pkg, analyzers)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
		checked++
	}
	if checked < 8 {
		t.Fatalf("only %d packages checked — module walk is broken", checked)
	}
	// The row-path and planner packages the analyzers exist for must be in
	// the walk, or a clean run is vacuous.
	joined := strings.Join(dirs, "\n")
	for _, must := range []string{"internal/exec", "internal/expr", "internal/core"} {
		if !strings.Contains(joined, filepath.FromSlash(must)) {
			t.Errorf("module walk missed %s", must)
		}
	}
}
