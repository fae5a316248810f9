// Package lint is a dependency-free static-analysis framework in the style
// of golang.org/x/tools/go/analysis, specialized for this repository's
// correctness invariants. Each Analyzer checks one rule; the gbj-lint
// command runs them all over the module ("make lint" / "make check").
//
// The analyzer catalog:
//
//   - maprange: no bare range over a map in the executor/expression row
//     paths (internal/exec, internal/expr). Map iteration order is
//     randomized; a row path that depends on it produces nondeterministic
//     results and breaks the serial-vs-parallel oracle. Iterate an
//     insertion-order slice or sort the keys.
//   - nowallclock: no time.Now/Since/Until and no math/rand in the planner,
//     the executor, the observability layer or the distributed runtime
//     (internal/core, internal/exec, internal/obs, internal/dist). Plan
//     choice must be a pure function of schema, statistics and query, and
//     operator timings — including retry backoffs — must flow through an
//     injected obs.Clock, or EXPLAIN / EXPLAIN ANALYZE output and the
//     oracle suites become unreproducible. The one sanctioned wall-clock
//     read is obs.Wall, which carries the //lint:ignore directive.
//   - accmerge: every accumulator implementation (a type with Add and
//     Result methods, internal/expr) must also implement the partial-
//     aggregate Merge (MergeFrom on an accumulator column), and it must
//     type-assert its partner — the
//     contract parallel aggregation is built on.
//   - optmutation: no writes to exec.Options fields outside the Options
//     methods themselves (internal/exec); an Options value is treated as
//     immutable once execution starts, and mutating it mid-run races with
//     the workers reading it.
//   - norawgo: no raw `go` statements in the executor (internal/exec);
//     every goroutine must be spawned through the goSafe helper, whose
//     recovery converts panics into typed *ExecPanicError values and whose
//     WaitGroup registration guarantees the goroutine is joined before the
//     query returns. goSafe itself hosts the one sanctioned `go`.
//   - distlink: no direct access to a Node's shard storage in the
//     distributed runtime (internal/dist) outside Node and Cluster methods;
//     rows move between nodes only through Link.Ship, where bytes are
//     accounted and link faults injected. Anything else silently corrupts
//     the communication-cost measurements.
//   - cowdict: never intern into a foreign (adopted) dictionary in the
//     columnar layer (internal/vec) without the copy-on-write clone guard,
//     and never adopt another vector's dictionary without marking it
//     foreign — the owner may be read concurrently.
//   - govloop: every row loop in the executor (internal/exec) must tick the
//     governor or check cancellation, directly or via an enclosing governed
//     loop; an ungoverned loop stalls cancellation, deadlines and budget
//     aborts for its whole run.
//   - budgetcharge: every function that grows operator state — a hash-join
//     table's row lists, a group table's groups (appendGroup) — must charge the
//     governor's memory budget in that same function, before the state can
//     outgrow the limit unobserved.
//   - errwrapped: errors passed to fmt.Errorf are wrapped with %w, never
//     stringified with %v/%s — stringifying severs the chain errors.As
//     dispatches on (*ResourceError, *ExecPanicError).
//   - selbounds: no direct indexing of a batch's selection vector outside
//     internal/vec; Sel is an optional representation (nil means identity)
//     and only the Batch accessors handle both cases.
//   - spillcleanup: spill temp files come only from a storage.SpillManager,
//     and every function that constructs one defers its Cleanup (the root
//     package, cmd, internal/exec, internal/storage); no ad-hoc temp files,
//     and no raw filesystem mutation in the executor and storage packages,
//     or a panicking query can leave files behind.
//   - sessionctx: no context.Background()/context.TODO() in the query
//     server (internal/server); every context must derive from the request
//     (r.Context()) joined to the caller-provided server root, or shutdown
//     and client disconnects cannot cancel the work it governs.
//   - retryloop: retry loops around link shipments (internal/dist) must be
//     bounded by a retry budget, consult the injected clock between
//     attempts, and check cancellation — an unbounded `for` around a
//     shipment spins forever on a dead link, and a loop that never reads
//     the clock cannot honor the context deadline.
//
// A finding can be suppressed with a directive comment on the same line or
// the line immediately above it:
//
//	//lint:ignore <analyzer> <reason>
//
// The analyzer name and reason are mandatory and there is no blanket form:
// a bare directive, a missing reason, or "all" as the analyzer name is
// itself a finding (analyzer "lintdirective"). Suppressions are scoped to
// the one named analyzer — other analyzers still report on the same line.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named rule.
type Analyzer struct {
	// Name identifies the analyzer in reports and //lint:ignore
	// directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Dirs are the module-relative directory prefixes the rule applies
	// to; empty means the whole module.
	Dirs []string
	// Run reports findings through the pass.
	Run func(*Pass) error
}

// AppliesTo reports whether the analyzer covers a module-relative
// directory.
func (a *Analyzer) AppliesTo(rel string) bool {
	if len(a.Dirs) == 0 {
		return true
	}
	for _, d := range a.Dirs {
		if rel == d || strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding as "file:line:col: message (analyzer)".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags   *[]Diagnostic
	ignores map[ignoreKey]bool
}

type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

// TypeOf returns the type of an expression, nil when type checking could
// not resolve it.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// ObjectOf resolves an identifier to its object (use or definition), nil
// when unresolved.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	return p.Info.ObjectOf(id)
}

// Reportf records a finding unless an ignore directive covers it. Only a
// directive naming this analyzer suppresses — there is no blanket form.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		if p.ignores[ignoreKey{position.Filename, line, p.Analyzer.Name}] {
			return
		}
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzers applies every analyzer whose Dirs cover the package and
// returns the combined findings in file/line order.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	ignores, diags := collectIgnores(pkg)
	for _, a := range analyzers {
		if !a.AppliesTo(pkg.Rel) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
			ignores:  ignores,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: analyzer %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags, nil
}

// collectIgnores indexes every //lint:ignore directive by file and line.
// Malformed directives are themselves findings (analyzer "lintdirective"):
// a suppression must name exactly one analyzer and give a reason —
// `//lint:ignore <analyzer> <reason>` — and the blanket form "all" does not
// exist, so a directive can never hide more than the one rule its author
// consciously weighed.
func collectIgnores(pkg *Package) (map[ignoreKey]bool, []Diagnostic) {
	ignores := make(map[ignoreKey]bool)
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				rest, ok := strings.CutPrefix(strings.TrimSpace(text), "lint:ignore")
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				switch {
				case len(fields) < 2:
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: "lintdirective",
						Message:  "malformed suppression: //lint:ignore requires an analyzer name and a reason (//lint:ignore <analyzer> <reason>)",
					})
				case fields[0] == "all":
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: "lintdirective",
						Message:  "blanket suppression //lint:ignore all is not allowed: name the single analyzer being suppressed",
					})
				default:
					ignores[ignoreKey{pos.Filename, pos.Line, fields[0]}] = true
				}
			}
		}
	}
	return ignores, diags
}

// DefaultAnalyzers is the full catalog, the set gbj-lint runs.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		MapRangeAnalyzer,
		NoWallClockAnalyzer,
		AccMergeAnalyzer,
		OptMutationAnalyzer,
		NoRawGoAnalyzer,
		DistLinkAnalyzer,
		CowDictAnalyzer,
		GovLoopAnalyzer,
		BudgetChargeAnalyzer,
		ErrWrappedAnalyzer,
		SelBoundsAnalyzer,
		SpillCleanupAnalyzer,
		RetryLoopAnalyzer,
		SessionCtxAnalyzer,
	}
}
