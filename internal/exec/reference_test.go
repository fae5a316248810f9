package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// refEval is a deliberately naive evaluator for the logical algebra: fully
// materialized, nested loops everywhere, grouping by O(n²) =ⁿ row
// comparison (no hashing, no sorting) — transcribing the paper's operator
// definitions as directly as possible. It exists purely as an oracle: the
// production executor must agree with it on every plan, under every
// physical strategy.
func refEval(n algebra.Node, store *storage.Store, params expr.Params) ([]value.Row, error) {
	switch node := n.(type) {
	case *algebra.Scan:
		tab, err := store.Table(node.Table)
		if err != nil {
			return nil, err
		}
		return append([]value.Row(nil), tab.Rows()...), nil
	case *algebra.Values:
		return append([]value.Row(nil), node.Rows...), nil
	case *algebra.Select:
		in, err := refEval(node.Input, store, params)
		if err != nil {
			return nil, err
		}
		cond, err := expr.Bind(node.Cond, node.Input.Schema())
		if err != nil {
			return nil, err
		}
		var out []value.Row
		for _, row := range in {
			truth, err := expr.EvalTruth(cond, row, params)
			if err != nil {
				return nil, err
			}
			if truth == value.True {
				out = append(out, row)
			}
		}
		return out, nil
	case *algebra.Product:
		return refJoin(&algebra.Join{L: node.L, R: node.R}, store, params)
	case *algebra.Join:
		return refJoin(node, store, params)
	case *algebra.Project:
		in, err := refEval(node.Input, store, params)
		if err != nil {
			return nil, err
		}
		items := make([]expr.Expr, len(node.Items))
		for i, item := range node.Items {
			bound, err := expr.Bind(item.E, node.Input.Schema())
			if err != nil {
				return nil, err
			}
			items[i] = bound
		}
		var out []value.Row
		for _, row := range in {
			proj := make(value.Row, len(items))
			for i, item := range items {
				v, err := expr.Eval(item, row, params)
				if err != nil {
					return nil, err
				}
				proj[i] = v
			}
			if node.Distinct && refContains(out, proj) {
				continue
			}
			out = append(out, proj)
		}
		return out, nil
	case *algebra.GroupBy:
		return refGroup(node, store, params)
	case *algebra.Sort:
		in, err := refEval(node.Input, store, params)
		if err != nil {
			return nil, err
		}
		// The oracle ignores order (comparisons are multiset-based);
		// pass rows through.
		return in, nil
	default:
		return nil, fmt.Errorf("refEval: unsupported node %T", n)
	}
}

func refJoin(node *algebra.Join, store *storage.Store, params expr.Params) ([]value.Row, error) {
	l, err := refEval(node.L, store, params)
	if err != nil {
		return nil, err
	}
	r, err := refEval(node.R, store, params)
	if err != nil {
		return nil, err
	}
	cond, err := expr.Bind(node.Cond, node.Schema())
	if err != nil {
		return nil, err
	}
	var out []value.Row
	for _, lr := range l {
		for _, rr := range r {
			row := lr.Concat(rr)
			truth, err := expr.EvalTruth(cond, row, params)
			if err != nil {
				return nil, err
			}
			if truth == value.True {
				out = append(out, row)
			}
		}
	}
	return out, nil
}

// refGroup groups by linear =ⁿ scanning — quadratic, but with no shared
// machinery with the hash/sort grouping operators.
func refGroup(node *algebra.GroupBy, store *storage.Store, params expr.Params) ([]value.Row, error) {
	in, err := refEval(node.Input, store, params)
	if err != nil {
		return nil, err
	}
	inSchema := node.Input.Schema()
	cols := make([]int, len(node.GroupCols))
	for i, gc := range node.GroupCols {
		idx, err := inSchema.IndexOf(gc)
		if err != nil {
			return nil, err
		}
		cols[i] = idx
	}
	var groups [][]value.Row
	if len(cols) == 0 {
		groups = [][]value.Row{in} // one group, even when empty
	} else {
		for _, row := range in {
			placed := false
			for gi, g := range groups {
				if value.NullEqRows(g[0].Project(cols), row.Project(cols)) {
					groups[gi] = append(groups[gi], row)
					placed = true
					break
				}
			}
			if !placed {
				groups = append(groups, []value.Row{row})
			}
		}
	}
	var out []value.Row
	for _, g := range groups {
		result := make(value.Row, 0, len(cols)+len(node.Aggs))
		if len(g) > 0 {
			result = append(result, g[0].Project(cols)...)
		}
		for _, item := range node.Aggs {
			bound, err := expr.Bind(item.E, inSchema)
			if err != nil {
				return nil, err
			}
			aggs := expr.Aggregates(bound)
			results := make(map[*expr.Aggregate]value.Value)
			for _, a := range aggs {
				acc, err := expr.NewAccumulator(a)
				if err != nil {
					return nil, err
				}
				for _, row := range g {
					var v value.Value
					if a.Func != expr.AggCountStar {
						if v, err = expr.Eval(a.Arg, row, params); err != nil {
							return nil, err
						}
					}
					if err := acc.Add(v); err != nil {
						return nil, err
					}
				}
				results[a] = acc.Result()
			}
			substituted := expr.RewritePre(bound, func(n expr.Expr) expr.Expr {
				if a, ok := n.(*expr.Aggregate); ok {
					if v, hit := results[a]; hit {
						return expr.Lit(v)
					}
				}
				return nil
			})
			v, err := expr.Eval(substituted, nil, params)
			if err != nil {
				return nil, err
			}
			result = append(result, v)
		}
		out = append(out, result)
	}
	return out, nil
}

func refContains(rows []value.Row, probe value.Row) bool {
	for _, r := range rows {
		if value.NullEqRows(r, probe) {
			return true
		}
	}
	return false
}

// randomExecStore builds two small tables with NULLs and duplicates.
func randomExecStore(t *testing.T, r *rand.Rand) *storage.Store {
	t.Helper()
	s := storage.NewStore(schema.NewCatalog())
	must(t, s.CreateTable(&schema.Table{
		Name: "L",
		Columns: []schema.Column{
			{Name: "a", Type: value.KindInt},
			{Name: "b", Type: value.KindInt},
		},
	}))
	must(t, s.CreateTable(&schema.Table{
		Name: "R",
		Columns: []schema.Column{
			{Name: "c", Type: value.KindInt},
			{Name: "d", Type: value.KindString},
		},
	}))
	nl := r.Intn(8)
	for i := 0; i < nl; i++ {
		row := value.Row{randInt(r), randInt(r)}
		must(t, s.Insert("L", row))
	}
	nr := r.Intn(6)
	for i := 0; i < nr; i++ {
		var d value.Value
		if r.Intn(4) == 0 {
			d = value.Null
		} else {
			d = value.NewString(string(rune('x' + r.Intn(2))))
		}
		must(t, s.Insert("R", value.Row{randInt(r), d}))
	}
	return s
}

func randInt(r *rand.Rand) value.Value {
	if r.Intn(4) == 0 {
		return value.Null
	}
	return value.NewInt(int64(r.Intn(3)))
}

// randomExecPlan builds a random plan over the L/R tables.
func randomExecPlan(t *testing.T, s *storage.Store, r *rand.Rand) algebra.Node {
	t.Helper()
	lDef, _ := s.Catalog().Table("L")
	rDef, _ := s.Catalog().Table("R")
	mkScan := func(def *schema.Table) *algebra.Scan {
		cols := make(algebra.Schema, len(def.Columns))
		for i, c := range def.Columns {
			cols[i] = algebra.ColDesc{ID: expr.ColumnID{Table: def.Name, Name: c.Name}, Type: c.Type}
		}
		return algebra.NewScan(def.Name, def.Name, cols)
	}
	var plan algebra.Node
	switch r.Intn(3) {
	case 0:
		plan = mkScan(lDef)
	case 1:
		plan = &algebra.Join{
			L: mkScan(lDef), R: mkScan(rDef),
			Cond: expr.Eq(expr.Column("L", "a"), expr.Column("R", "c")),
		}
	default:
		plan = &algebra.Join{
			L: mkScan(lDef), R: mkScan(rDef),
			Cond: expr.And(
				expr.Eq(expr.Column("L", "a"), expr.Column("R", "c")),
				expr.NewBinary(expr.OpGt, expr.Column("L", "b"), expr.IntLit(0)),
			),
		}
	}
	if r.Intn(2) == 0 {
		plan = &algebra.Select{
			Input: plan,
			Cond:  expr.NewBinary(expr.OpLt, expr.Column("L", "b"), expr.IntLit(int64(r.Intn(3)))),
		}
	}
	switch r.Intn(3) {
	case 0:
		plan = &algebra.GroupBy{
			Input:     plan,
			GroupCols: []expr.ColumnID{{Table: "L", Name: "a"}},
			Aggs: []algebra.AggItem{
				{E: &expr.Aggregate{Func: expr.AggCountStar}, As: expr.ColumnID{Name: "n"}},
				{E: &expr.Aggregate{Func: expr.AggSum, Arg: expr.Column("L", "b")}, As: expr.ColumnID{Name: "s"}},
			},
		}
	case 1:
		plan = &algebra.Project{
			Input: plan,
			Items: []algebra.ProjItem{
				{E: expr.Column("L", "a"), As: expr.ColumnID{Name: "a"}},
			},
			Distinct: r.Intn(2) == 0,
		}
	}
	return plan
}

// TestExecutorAgainstReference: the executor, under every physical join and
// grouping strategy, at one worker and at several, must agree (as a multiset)
// with the naive reference evaluator on random plans over random data.
func TestExecutorAgainstReference(t *testing.T) {
	iterations := 1500
	if testing.Short() {
		iterations = 200
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < iterations; i++ {
		s := randomExecStore(t, r)
		plan := randomExecPlan(t, s, r)
		want, err := refEval(plan, s, nil)
		if err != nil {
			t.Fatalf("iteration %d: reference: %v", i, err)
		}
		for _, join := range []JoinStrategy{JoinHash, JoinSortMerge, JoinNestedLoop} {
			for _, group := range []GroupStrategy{GroupHash, GroupSort, GroupAuto} {
				// Three workers over these few rows: a chunk, and a partial
				// group table, every two or three rows.
				for _, par := range []int{1, 3} {
					res, err := Run(plan, s, &Options{Join: join, Group: group, Parallelism: par})
					if err != nil {
						t.Fatalf("iteration %d (%v/%v/%d workers): %v", i, join, group, par, err)
					}
					if !sameMultiset(res.Rows, want) {
						t.Fatalf("iteration %d (%v/%v/%d workers): executor disagrees with reference\nplan:\n%s\ngot:  %v\nwant: %v",
							i, join, group, par, algebra.Format(plan, nil), res.Rows, want)
					}
				}
			}
		}
	}
}
