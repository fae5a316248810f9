package expr

import (
	"testing"

	"repro/internal/value"
)

// TestNodeStrings pins the rendering of every expression node kind —
// EXPLAIN output and TestFD traces are built from these.
func TestNodeStrings(t *testing.T) {
	sub := struct{ x int }{1} // opaque query stand-in
	cases := []struct {
		e    Expr
		want string
	}{
		{Neg(Column("t", "a")), "-(t.a)"},
		{Not(Eq(Column("t", "a"), IntLit(1))), "NOT (t.a = 1)"},
		{&IsNull{E: Column("t", "a")}, "t.a IS NULL"},
		{&IsNull{E: Column("t", "a"), Negate: true}, "t.a IS NOT NULL"},
		{&Like{E: Column("t", "a"), Pattern: StrLit("x%")}, "t.a LIKE 'x%'"},
		{&Like{E: Column("t", "a"), Pattern: StrLit("x%"), Negate: true}, "t.a NOT LIKE 'x%'"},
		{&Between{E: Column("t", "a"), Lo: IntLit(1), Hi: IntLit(2), Negate: true},
			"t.a NOT BETWEEN 1 AND 2"},
		{&InSubquery{E: Column("t", "a"), Query: sub}, "t.a IN (<subquery>)"},
		{&InSubquery{E: Column("t", "a"), Query: sub, Negate: true}, "t.a NOT IN (<subquery>)"},
		{&ExistsSubquery{Query: sub}, "EXISTS (<subquery>)"},
		{&ExistsSubquery{Query: sub, Negate: true}, "NOT EXISTS (<subquery>)"},
		{&ScalarSubquery{Query: sub}, "(<subquery>)"},
		{&Aggregate{Func: AggAvg, Arg: Column("t", "a")}, "AVG(t.a)"},
		{&Aggregate{Func: AggMin, Arg: Column("t", "a")}, "MIN(t.a)"},
		{&Aggregate{Func: AggMax, Arg: Column("t", "a")}, "MAX(t.a)"},
		{Lit(value.NewBool(false)), "FALSE"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// TestOperatorNames pins the operator and aggregate-function spellings.
func TestOperatorNames(t *testing.T) {
	ops := map[BinOp]string{
		OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
		OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpAnd: "AND", OpOr: "OR",
	}
	for op, want := range ops {
		if got := op.String(); got != want {
			t.Errorf("BinOp(%d).String() = %q, want %q", op, got, want)
		}
	}
	if BinOp(99).String() == "" {
		t.Error("unknown BinOp must still render")
	}
	funcs := map[AggFunc]string{
		AggCount: "COUNT", AggCountStar: "COUNT", AggSum: "SUM",
		AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX",
	}
	for f, want := range funcs {
		if got := f.String(); got != want {
			t.Errorf("AggFunc(%d).String() = %q, want %q", f, got, want)
		}
	}
}

// TestNNFThroughAllPredicates: NOT pushes into every negatable node kind.
func TestNNFThroughAllPredicates(t *testing.T) {
	sub := struct{ y int }{2}
	cases := []Expr{
		&InSubquery{E: Column("t", "a"), Query: sub},
		&ExistsSubquery{Query: sub},
		&InList{E: Column("t", "a"), List: []Expr{IntLit(1)}},
		&Between{E: Column("t", "a"), Lo: IntLit(1), Hi: IntLit(2)},
		&Like{E: Column("t", "a"), Pattern: StrLit("x")},
		&IsNull{E: Column("t", "a")},
	}
	for _, c := range cases {
		out := NNF(Not(c))
		if _, stillNot := out.(*Unary); stillNot {
			t.Errorf("NNF left NOT around %T", c)
		}
		// Double negation restores the original structure.
		back := NNF(Not(Not(c)))
		if !Equal(back, c) {
			t.Errorf("NNF(NOT NOT %s) = %s", c, back)
		}
	}
	// Non-negatable atom keeps its NOT.
	keep := NNF(Not(Column("t", "flag")))
	if _, ok := keep.(*Unary); !ok {
		t.Errorf("NNF dropped NOT from a bare column: %s", keep)
	}
	// Negated comparisons flip (each operator).
	flips := map[BinOp]BinOp{
		OpEq: OpNe, OpNe: OpEq, OpLt: OpGe, OpGe: OpLt, OpLe: OpGt, OpGt: OpLe,
	}
	for from, to := range flips {
		out := NNF(Not(NewBinary(from, Column("t", "a"), IntLit(1))))
		b, ok := out.(*Binary)
		if !ok || b.Op != to {
			t.Errorf("NNF(NOT %s) = %s, want operator %s", from, out, to)
		}
	}
}

// TestBindSubqueryNodes: binding passes through subquery nodes and resolves
// their outer-scoped operands.
func TestBindSubqueryNodes(t *testing.T) {
	res := testResolver(ColumnID{"t", "a"})
	sub := struct{ z int }{3}
	in, err := Bind(&InSubquery{E: Column("t", "a"), Query: sub}, res)
	if err != nil {
		t.Fatal(err)
	}
	if in.(*InSubquery).E.(*ColumnRef).Index != 0 {
		t.Error("IN-subquery operand not bound")
	}
	if _, err := Bind(&ExistsSubquery{Query: sub}, res); err != nil {
		t.Fatal(err)
	}
	if _, err := Bind(&ScalarSubquery{Query: sub}, res); err != nil {
		t.Fatal(err)
	}
	// Eval on unmaterialized subqueries errors.
	for _, e := range []Expr{
		&InSubquery{E: Column("t", "a"), Query: sub},
		&ExistsSubquery{Query: sub},
		&ScalarSubquery{Query: sub},
	} {
		if _, err := Eval(e, nil, nil); err == nil {
			t.Errorf("Eval(%T) must error before materialization", e)
		}
	}
}

// TestBoundColumn covers the pre-bound constructor.
func TestBoundColumn(t *testing.T) {
	c := BoundColumn("t", "a", 3)
	if c.Index != 3 || c.ID.Name != "a" {
		t.Errorf("BoundColumn = %+v", c)
	}
	v, err := Eval(c, value.Row{value.NewInt(0), value.NewInt(0), value.NewInt(0), value.NewInt(9)}, nil)
	if err != nil || v.Int() != 9 {
		t.Errorf("Eval(BoundColumn) = %v, %v", v, err)
	}
}
