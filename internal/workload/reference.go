package workload

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// RefEval is a deliberately naive evaluator for the logical algebra: fully
// materialized, nested loops everywhere, grouping by O(n²) =ⁿ row comparison
// (no hashing), a stable sort for ORDER BY — transcribing the paper's operator
// definitions as directly as possible. It exists purely as an oracle: the
// executor must agree with it on every plan, under every physical strategy,
// worker count, source form and cluster size. store may be nil for a plan
// with no Scan.
func RefEval(n algebra.Node, store *storage.Store, params expr.Params) ([]value.Row, error) {
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
		in, err := RefEval(node.Input, store, params)
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
		in, err := RefEval(node.Input, store, params)
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
		in, err := RefEval(node.Input, store, params)
		if err != nil {
			return nil, err
		}
		cols := make([]int, len(node.Keys))
		for i, k := range node.Keys {
			if cols[i], err = node.Input.Schema().IndexOf(k.Col); err != nil {
				return nil, err
			}
		}
		slices.SortStableFunc(in, func(a, b value.Row) int {
			for i, k := range node.Keys {
				c := value.OrderKey(a[cols[i]], b[cols[i]])
				if k.Desc {
					c = -c
				}
				if c != 0 {
					return c
				}
			}
			return 0
		})
		return in, nil
	case *algebra.Limit:
		in, err := RefEval(node.Input, store, params)
		if err != nil {
			return nil, err
		}
		return in[:min(int64(len(in)), max(node.N, 0))], nil
	default:
		return nil, fmt.Errorf("RefEval: unsupported node %T", n)
	}
}

func refJoin(node *algebra.Join, store *storage.Store, params expr.Params) ([]value.Row, error) {
	l, err := RefEval(node.L, store, params)
	if err != nil {
		return nil, err
	}
	r, err := RefEval(node.R, store, params)
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
	in, err := RefEval(node.Input, store, params)
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

// Fingerprint renders each row as one string, in row order. Every cell is
// tagged with its kind, so two results agree only if they hold the same values
// of the same types: int 1 and float 1.0 are =ⁿ duplicates, but not the same
// answer. Strings are quoted, so no cell's text can pass for a separator.
func Fingerprint(rows []value.Row) []string {
	out := make([]string, len(rows))
	var buf []byte
	for i, row := range rows {
		buf = buf[:0]
		for j, v := range row {
			if j > 0 {
				buf = append(buf, '|')
			}
			buf = appendCell(buf, v)
		}
		out[i] = string(buf)
	}
	return out
}

// SameRows reports whether a and b hold the same rows in the same order, cell
// for cell of one kind and one value (a float to the bit): the in-order test
// of Fingerprint, without rendering the rows.
func SameRows(a, b []value.Row) bool {
	return slices.EqualFunc(a, b, func(x, y value.Row) bool {
		return slices.EqualFunc(x, y, func(v, w value.Value) bool {
			if v.Kind() != w.Kind() {
				return false
			}
			if v.Kind() == value.KindFloat {
				return math.Float64bits(v.Float()) == math.Float64bits(w.Float())
			}
			c, ok := value.Compare(v, w)
			return v.IsNull() || ok && c == 0
		})
	})
}

// Multiset is the sorted Fingerprint: equal for two results that hold the same
// rows in any order.
func Multiset(rows []value.Row) []string {
	out := Fingerprint(rows)
	slices.Sort(out)
	return out
}

func appendCell(buf []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.KindNull:
		return append(buf, "NULL"...)
	case value.KindInt:
		return strconv.AppendInt(append(buf, "i:"...), v.Int(), 10)
	case value.KindFloat:
		return strconv.AppendFloat(append(buf, "f:"...), v.Float(), 'g', -1, 64)
	case value.KindString:
		return strconv.AppendQuote(append(buf, "s:"...), v.Str())
	default:
		return append(append(buf, "b:"...), v.String()...)
	}
}
