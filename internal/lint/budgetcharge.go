package lint

import (
	"go/ast"
	"go/types"
)

// BudgetChargeAnalyzer enforces the memory-accounting contract of the
// stateful operators: hash-join tables and aggregation state grow without
// bound in the input size, so every function that calls a store's growth
// step — the group table's appendGroup, the one place a group gets its id,
// key bytes and accumulator states, and the join table's link and linkDense,
// where a build row joins a key's chain in a hashed or a dense table — must
// charge the governor's memory budget in the same function. Both stores are
// shared by the row and the batch form of a probe and of a group feed. A
// growth site in a function that never calls charge means the query can blow
// past its MemoryBudget silently; the oracle only catches that dynamically,
// and only when the budget happens to be crossed under test. Sites that copy
// state already charged elsewhere (the parallel merge step) carry an explicit
// //lint:ignore with the reason.
var BudgetChargeAnalyzer = &Analyzer{
	Name: "budgetcharge",
	Doc:  "operator state growth (build rows linked into a join table, groups appended to a group table) must charge the memory budget in the same function",
	Dirs: []string{"internal/exec"},
	Run:  runBudgetCharge,
}

func runBudgetCharge(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkChargeScope(pass, fd.Body)
		}
	}
	return nil
}

// checkChargeScope flags uncharged growth sites within one function body,
// treating each nested function literal as its own accounting scope (a
// worker closure must charge for its own insertions; a charge inside some
// other closure doesn't cover this one's).
func checkChargeScope(pass *Pass, body *ast.BlockStmt) {
	charges := scopeCharges(body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkChargeScope(pass, n.Body)
			return false
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && !charges {
				if what := growthStep(pass, sel); what != "" {
					pass.Reportf(n.Pos(), "%s %s without charging the memory budget: call charge with the entry's size in this function, before the table can grow", what, types.ExprString(sel.X))
				}
			}
		}
		return true
	})
}

// scopeCharges reports whether the body calls charge — or tryCharge, the
// refusal-aware variant the spilling operators use to decide between
// staying in memory and partitioning to disk — directly (not inside a
// nested function literal).
func scopeCharges(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "charge" || sel.Sel.Name == "tryCharge") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// growthSteps are the stores' growth steps, by store type and method name,
// each with the words a finding uses for it.
var growthSteps = map[[2]string]string{
	{"groupTable", "appendGroup"}: "group appended to",
	{"joinTable", "link"}:         "build row linked into",
	{"joinTable", "linkDense"}:    "build row linked into",
}

// growthStep reports whether sel names a store's growth step, and how a
// finding says it: "" when it does not.
func growthStep(pass *Pass, sel *ast.SelectorExpr) string {
	t := pass.TypeOf(sel.X)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return growthSteps[[2]string{named.Obj().Name(), sel.Sel.Name}]
}
