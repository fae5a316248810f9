package lint

import (
	"go/ast"
	"go/types"
)

// BudgetChargeAnalyzer enforces the memory-accounting contract of the
// stateful operators: hash-join tables and aggregation state grow without
// bound in the input size, so every function that grows such state — an
// insert into a map keyed by join key whose values are row lists
// ([]value.Row), or a call of the group table's appendGroup, the one place a
// group gets its id, key bytes and accumulator states: the one join table and
// the one group table, which the row and the batch form of a probe and of a
// group feed share — must charge the governor's memory budget in the same
// function. A growth site in a function that never calls charge means the
// query can blow past its MemoryBudget silently; the oracle only catches
// that dynamically, and only when the budget happens to be crossed under
// test. Sites that copy state already charged elsewhere (the parallel
// merge step) carry an explicit //lint:ignore with the reason.
var BudgetChargeAnalyzer = &Analyzer{
	Name: "budgetcharge",
	Doc:  "operator state growth (join-table inserts, groups appended to a group table) must charge the memory budget in the same function",
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
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && !charges && appendsGroup(pass, sel) {
				pass.Reportf(n.Pos(), "group appended to %s without charging the memory budget: call charge with the group's state size in this function, before the table can grow", types.ExprString(sel.X))
			}
		case *ast.AssignStmt:
			if charges {
				return true
			}
			for _, lhs := range n.Lhs {
				idx, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				if stateMapValue(pass, idx.X) {
					pass.Reportf(idx.Pos(), "insert into operator state %s without charging the memory budget: call gov.charge with the entry size in this function, before the state can grow", types.ExprString(idx.X))
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

// appendsGroup reports whether sel names the group table's growth step: the
// appendGroup method of a groupTable.
func appendsGroup(pass *Pass, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "appendGroup" {
		return false
	}
	t := pass.TypeOf(sel.X)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "groupTable"
}

// stateMapValue reports whether the expression is a map whose value type is
// operator state: []value.Row, a hash join's row lists.
func stateMapValue(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	if v, ok := m.Elem().(*types.Slice); ok {
		named, ok := v.Elem().(*types.Named)
		return ok && named.Obj().Name() == "Row"
	}
	return false
}
