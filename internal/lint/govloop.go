package lint

import (
	"go/ast"
	"go/types"
)

// GovLoopAnalyzer enforces the executor's responsiveness contract: every
// loop that walks rows — or batches, the unit a columnar pipeline carries —
// must pass through the query governor, or cancellation, deadlines and
// memory-budget aborts go unnoticed for the whole loop. Concretely, any
// `range` over a []value.Row or a []*vec.Batch in internal/exec must call
// the governor (tick, cancelled or charge) somewhere in its body — or be
// nested inside a loop that does, which bounds the ungoverned stretch to one
// outer iteration. Pulling from an iterator does not count: nothing promises
// that a Next ticks. The governor is nil-safe,
// so the fix is always just a tick, and a tick is cheap: one atomic load of
// the flag the context's callback raises on cancellation, which writes
// nothing shared — a fault-injector step and a non-blocking receive on the
// context's done channel only under an injector (governor.go).
var GovLoopAnalyzer = &Analyzer{
	Name: "govloop",
	Doc:  "every row or batch loop in the executor must tick the governor or check cancellation",
	Dirs: []string{"internal/exec"},
	Run:  runGovLoop,
}

// governedCallNames are the method names that count as touching the
// governor: governor.tick/cancelled/charge.
var governedCallNames = map[string]bool{
	"tick":      true,
	"cancelled": true,
	"charge":    true,
}

func runGovLoop(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGovLoops(pass, fd.Body, false)
		}
	}
	return nil
}

// checkGovLoops walks a statement tree; governed records whether an
// enclosing loop already calls the governor per iteration.
func checkGovLoops(pass *Pass, n ast.Node, governed bool) {
	ast.Inspect(n, func(node ast.Node) bool {
		rs, ok := node.(*ast.RangeStmt)
		if !ok {
			// Descend into everything else (including for-loops and
			// function literals) with the inherited governed state.
			return true
		}
		inner := governed || bodyTicksGovernor(rs.Body)
		if unit := loopUnit(pass, rs.X); unit != "" && !inner {
			pass.Reportf(rs.For, "%s loop over %s never touches the governor: cancellation, deadlines and budget aborts stall for its whole run; call gov.tick() (nil-safe) per %s", unit, types.ExprString(rs.X), unit)
		}
		// Recurse manually so nested loops see the updated governed state,
		// then prune this subtree from the outer Inspect.
		checkGovLoops(pass, rs.Body, inner)
		return false
	})
}

// bodyTicksGovernor reports whether the loop body contains a governed call
// anywhere, including in nested loops (a nested tick still runs every
// iteration of this loop).
func bodyTicksGovernor(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // a deferred/spawned closure doesn't run per row
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && governedCallNames[sel.Sel.Name] {
			found = true
			return false
		}
		return true
	})
	return found
}

// loopUnit names what a range over the expression walks — "row" for a
// []value.Row, "batch" for a []*vec.Batch — or "" for anything else.
func loopUnit(pass *Pass, e ast.Expr) string {
	t := pass.TypeOf(e)
	if t == nil {
		return ""
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return ""
	}
	elem, unit, want := sl.Elem(), "row", "value.Row"
	if p, ok := elem.(*types.Pointer); ok {
		elem, unit, want = p.Elem(), "batch", "vec.Batch"
	}
	named, ok := elem.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Name()+"."+named.Obj().Name() != want {
		return ""
	}
	return unit
}
