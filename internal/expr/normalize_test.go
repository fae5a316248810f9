package expr

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func TestConjunctsDisjuncts(t *testing.T) {
	a := Eq(Column("t", "a"), IntLit(1))
	b := Eq(Column("t", "b"), IntLit(2))
	c := Eq(Column("t", "c"), IntLit(3))
	conj := And(a, b, c)
	if got := Conjuncts(conj); len(got) != 3 {
		t.Errorf("Conjuncts(%s) has %d parts, want 3", conj, len(got))
	}
	if got := Conjuncts(nil); len(got) != 0 {
		t.Errorf("Conjuncts(nil) = %v, want empty", got)
	}
	if And() != nil || Or() != nil {
		t.Error("And()/Or() of nothing must be nil")
	}
}

func TestNNFPushesNegation(t *testing.T) {
	a := NewBinary(OpLt, Column("t", "a"), IntLit(1))
	b := Eq(Column("t", "b"), IntLit(2))
	// NOT (a < 1 AND b = 2) → a >= 1 OR b <> 2
	e := NNF(Not(And(a, b)))
	bin, ok := e.(*Binary)
	if !ok || bin.Op != OpOr {
		t.Fatalf("NNF produced %s, want a top-level OR", e)
	}
	l, ok := bin.L.(*Binary)
	if !ok || l.Op != OpGe {
		t.Errorf("left branch is %s, want a >= 1", bin.L)
	}
	r, ok := bin.R.(*Binary)
	if !ok || r.Op != OpNe {
		t.Errorf("right branch is %s, want b <> 2", bin.R)
	}
	// Double negation cancels.
	if got := NNF(Not(Not(a))); !Equal(got, a) {
		t.Errorf("NNF(NOT NOT e) = %s, want %s", got, a)
	}
	// NOT over IS NULL folds into the flag.
	isn := NNF(Not(&IsNull{E: Column("t", "a")}))
	if n, ok := isn.(*IsNull); !ok || !n.Negate {
		t.Errorf("NNF(NOT (a IS NULL)) = %s, want a IS NOT NULL", isn)
	}
}

func TestCNFDistributes(t *testing.T) {
	a := Eq(Column("t", "a"), IntLit(1))
	b := Eq(Column("t", "b"), IntLit(2))
	c := Eq(Column("t", "c"), IntLit(3))
	// a OR (b AND c) → (a OR b) AND (a OR c)
	clauses, err := CNF(Or(a, And(b, c)))
	if err != nil {
		t.Fatal(err)
	}
	if len(clauses) != 2 || len(clauses[0]) != 2 || len(clauses[1]) != 2 {
		t.Fatalf("CNF shape wrong: %v clauses", len(clauses))
	}
}

func TestDNFDistributes(t *testing.T) {
	a := Eq(Column("t", "a"), IntLit(1))
	b := Eq(Column("t", "b"), IntLit(2))
	c := Eq(Column("t", "c"), IntLit(3))
	// a AND (b OR c) → (a AND b) OR (a AND c)
	terms, err := DNF(And(a, Or(b, c)))
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 2 || len(terms[0]) != 2 || len(terms[1]) != 2 {
		t.Fatalf("DNF shape wrong: %d terms", len(terms))
	}
	// nil → single empty (vacuously true) term.
	terms, err = DNF(nil)
	if err != nil || len(terms) != 1 || len(terms[0]) != 0 {
		t.Errorf("DNF(nil) = %v, %v", terms, err)
	}
}

func TestNormalFormBlowupIsCapped(t *testing.T) {
	// AND of 15 two-way ORs has 2^15 = 32768 DNF terms > cap.
	var conj []Expr
	for i := 0; i < 15; i++ {
		conj = append(conj, Or(
			Eq(Column("t", "a"), IntLit(int64(i))),
			Eq(Column("t", "b"), IntLit(int64(i))),
		))
	}
	if _, err := DNF(And(conj...)); err != ErrTooLarge {
		t.Errorf("DNF blowup returned %v, want ErrTooLarge", err)
	}
}

// randomPredicate builds a random predicate tree over two int columns.
func randomPredicate(r *rand.Rand, depth int) Expr {
	if depth == 0 || r.Intn(3) == 0 {
		col := Column("t", string(rune('a'+r.Intn(2))))
		switch r.Intn(3) {
		case 0:
			return Eq(col, IntLit(int64(r.Intn(3))))
		case 1:
			return NewBinary(OpLt, col, IntLit(int64(r.Intn(3))))
		default:
			return &IsNull{E: col, Negate: r.Intn(2) == 0}
		}
	}
	switch r.Intn(3) {
	case 0:
		return And(randomPredicate(r, depth-1), randomPredicate(r, depth-1))
	case 1:
		return Or(randomPredicate(r, depth-1), randomPredicate(r, depth-1))
	default:
		return Not(randomPredicate(r, depth-1))
	}
}

func randomNarrowRow(r *rand.Rand) value.Row {
	row := make(value.Row, 2)
	for i := range row {
		if r.Intn(4) == 0 {
			row[i] = value.Null
		} else {
			row[i] = value.NewInt(int64(r.Intn(3)))
		}
	}
	return row
}

// TestPropNormalFormsPreserveTruth: NNF, CNF and DNF conversions preserve
// the three-valued truth value of the predicate on random rows — the
// soundness property Algorithm TestFD's preprocessing depends on.
func TestPropNormalFormsPreserveTruth(t *testing.T) {
	res := testResolver(ColumnID{"t", "a"}, ColumnID{"t", "b"})
	cfg := &quick.Config{
		MaxCount: 3000,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(randomPredicate(r, 4))
			args[1] = reflect.ValueOf(randomNarrowRow(r))
		},
	}
	prop := func(p Expr, row value.Row) bool {
		bp, err := Bind(p, res)
		if err != nil {
			return false
		}
		want, err := EvalTruth(bp, row, nil)
		if err != nil {
			return false
		}
		for _, form := range []Expr{NNF(p)} {
			bf, err := Bind(form, res)
			if err != nil {
				return false
			}
			got, err := EvalTruth(bf, row, nil)
			if err != nil || got != want {
				return false
			}
		}
		clauses, err := CNF(p)
		if err == nil {
			var conj []Expr
			for _, clause := range clauses {
				conj = append(conj, Or(clause...))
			}
			bf, err := Bind(And(conj...), res)
			if err != nil {
				return false
			}
			got, err := EvalTruth(bf, row, nil)
			if err != nil || got != want {
				return false
			}
		}
		terms, err := DNF(p)
		if err == nil {
			var disj []Expr
			for _, term := range terms {
				disj = append(disj, And(term...))
			}
			bf, err := Bind(Or(disj...), res)
			if err != nil {
				return false
			}
			got, err := EvalTruth(bf, row, nil)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestSimplifyTruth(t *testing.T) {
	a := Eq(Column("t", "a"), IntLit(1))
	tru := Lit(value.NewBool(true))
	fls := Lit(value.NewBool(false))
	cases := []struct {
		in   Expr
		want Expr // nil means vacuously true
	}{
		{And(tru, a), a},
		{And(a, tru), a},
		{And(fls, a), fls},
		{And(a, fls), fls},
		{Or(tru, a), nil},
		{Or(a, tru), nil},
		{Or(fls, a), a},
		{Or(a, fls), a},
		{Not(tru), fls},
		{Not(fls), nil},
		{tru, nil},
		{fls, fls},
		{a, a},
		// Nested: (TRUE AND a) OR FALSE → a.
		{Or(And(tru, a), fls), a},
		// Unknown (NULL literal) must NOT be folded away.
		{And(Lit(value.Null), a), And(Lit(value.Null), a)},
	}
	for _, c := range cases {
		got := SimplifyTruth(c.in)
		if c.want == nil {
			if got != nil {
				t.Errorf("SimplifyTruth(%s) = %v, want nil (vacuously true)", c.in, got)
			}
			continue
		}
		if !Equal(got, c.want) {
			t.Errorf("SimplifyTruth(%s) = %s, want %s", c.in, got, c.want)
		}
	}
	if SimplifyTruth(nil) != nil {
		t.Error("SimplifyTruth(nil) must be nil")
	}
}

// TestPropSimplifyTruthPreserves: simplification never changes a
// predicate's truth value.
func TestPropSimplifyTruthPreserves(t *testing.T) {
	res := testResolver(ColumnID{"t", "a"}, ColumnID{"t", "b"})
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		p := randomPredicateWithLiterals(r, 4)
		row := randomNarrowRow(r)
		bp, err := Bind(p, res)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EvalTruth(bp, row, nil)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := Bind(SimplifyTruth(p), res)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvalTruth(bs, row, nil)
		if err != nil || got != want {
			t.Fatalf("SimplifyTruth changed truth: %s → %v vs %v (err %v)", p, want, got, err)
		}
	}
}

func randomPredicateWithLiterals(r *rand.Rand, depth int) Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(4) {
		case 0:
			return Lit(value.NewBool(true))
		case 1:
			return Lit(value.NewBool(false))
		default:
			return randomPredicate(r, 0)
		}
	}
	switch r.Intn(3) {
	case 0:
		return And(randomPredicateWithLiterals(r, depth-1), randomPredicateWithLiterals(r, depth-1))
	case 1:
		return Or(randomPredicateWithLiterals(r, depth-1), randomPredicateWithLiterals(r, depth-1))
	default:
		return Not(randomPredicateWithLiterals(r, depth-1))
	}
}

func TestClassifyAtom(t *testing.T) {
	colA := Column("R1", "a")
	colB := Column("R2", "b")
	cases := []struct {
		e    Expr
		want AtomClass
	}{
		{Eq(colA, IntLit(25)), AtomColConst},
		{Eq(IntLit(25), colA), AtomColConst},
		{Eq(colA, Param("h")), AtomColConst},
		{Eq(colA, colB), AtomColCol},
		{Eq(colA, NewBinary(OpAdd, IntLit(1), IntLit(2))), AtomColConst},
		{NewBinary(OpLt, colA, IntLit(25)), AtomOther},
		{Eq(colA, NewBinary(OpAdd, colB, IntLit(1))), AtomOther},
		{Eq(IntLit(1), IntLit(1)), AtomOther},
		{&IsNull{E: colA}, AtomOther},
	}
	for _, c := range cases {
		got := ClassifyAtom(c.e)
		if got.Class != c.want {
			t.Errorf("ClassifyAtom(%s) = %v, want %v", c.e, got.Class, c.want)
		}
	}
	// Operand capture.
	a := ClassifyAtom(Eq(IntLit(25), colA))
	if a.Col != (ColumnID{"R1", "a"}) {
		t.Errorf("Type 1 column captured as %v", a.Col)
	}
	cc := ClassifyAtom(Eq(colA, colB))
	if cc.Col != (ColumnID{"R1", "a"}) || cc.Col2 != (ColumnID{"R2", "b"}) {
		t.Errorf("Type 2 columns captured as %v, %v", cc.Col, cc.Col2)
	}
}

func TestClassifyConjunctSides(t *testing.T) {
	r1 := map[string]bool{"A": true, "P": true}
	cases := []struct {
		e    Expr
		want ConjunctSide
	}{
		{Eq(Column("A", "PNo"), Column("P", "PNo")), SideC1},
		{Eq(Column("U", "Machine"), StrLit("dragon")), SideC2},
		{Eq(Column("U", "UserId"), Column("A", "UserId")), SideC0},
		{Lit(value.NewBool(true)), SideC1}, // column-free: run anywhere, default C1
	}
	for _, c := range cases {
		if got := Classify(c.e, r1); got != c.want {
			t.Errorf("Classify(%s) = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestFoldConstants(t *testing.T) {
	e := NewBinary(OpAdd, IntLit(1), NewBinary(OpMul, IntLit(2), IntLit(3)))
	folded := FoldConstants(e, nil)
	lit, ok := folded.(*Literal)
	if !ok || lit.Val.Int() != 7 {
		t.Errorf("FoldConstants(%s) = %s, want 7", e, folded)
	}
	// Column-bearing parts stay unfolded.
	mixed := NewBinary(OpAdd, Column("t", "a"), NewBinary(OpMul, IntLit(2), IntLit(3)))
	foldedMixed := FoldConstants(mixed, nil)
	b, ok := foldedMixed.(*Binary)
	if !ok {
		t.Fatalf("FoldConstants(%s) = %s", mixed, foldedMixed)
	}
	if _, ok := b.R.(*Literal); !ok {
		t.Errorf("constant subtree not folded: %s", foldedMixed)
	}
	if _, ok := b.L.(*ColumnRef); !ok {
		t.Errorf("column subtree altered: %s", foldedMixed)
	}
	// Host variables fold when a value is supplied.
	h := FoldConstants(Param("x"), Params{"x": value.NewInt(9)})
	if lit, ok := h.(*Literal); !ok || lit.Val.Int() != 9 {
		t.Errorf("host var not folded: %s", h)
	}
}

func TestWalkAndColumns(t *testing.T) {
	e := And(
		Eq(Column("A", "x"), Column("B", "y")),
		NewBinary(OpGt, Column("A", "x"), IntLit(1)),
	)
	cols := Columns(e)
	if len(cols) != 2 {
		t.Fatalf("Columns = %v, want 2 distinct", cols)
	}
	tables := Tables(e)
	if len(tables) != 2 || tables[0] != "A" || tables[1] != "B" {
		t.Errorf("Tables = %v", tables)
	}
}

func TestHasAggregateAndAggregates(t *testing.T) {
	plain := Eq(Column("t", "a"), IntLit(1))
	if HasAggregate(plain) {
		t.Error("plain comparison reported as aggregate")
	}
	withAgg := NewBinary(OpAdd,
		&Aggregate{Func: AggCount, Arg: Column("t", "a")},
		&Aggregate{Func: AggSum, Arg: NewBinary(OpAdd, Column("t", "b"), Column("t", "c"))},
	)
	if !HasAggregate(withAgg) {
		t.Error("aggregate expression not detected")
	}
	aggs := Aggregates(withAgg)
	if len(aggs) != 2 {
		t.Fatalf("Aggregates found %d, want 2", len(aggs))
	}
	if aggs[0].Func != AggCount || aggs[1].Func != AggSum {
		t.Errorf("aggregate order wrong: %v, %v", aggs[0], aggs[1])
	}
}

func TestSubstituteColumns(t *testing.T) {
	e := Eq(Column("E", "DeptID"), Column("D", "DeptID"))
	sub := SubstituteColumns(e, map[ColumnID]ColumnID{
		{"E", "DeptID"}: {"R1'", "DeptID"},
	})
	want := Eq(Column("R1'", "DeptID"), Column("D", "DeptID"))
	if !Equal(sub, want) {
		t.Errorf("SubstituteColumns = %s, want %s", sub, want)
	}
	// Original untouched.
	if !Equal(e, Eq(Column("E", "DeptID"), Column("D", "DeptID"))) {
		t.Error("SubstituteColumns mutated its input")
	}
}

func TestExprStrings(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Eq(Column("E", "DeptID"), Column("D", "DeptID")), "E.DeptID = D.DeptID"},
		{And(Eq(Column("t", "a"), IntLit(1)), Or(Eq(Column("t", "b"), IntLit(2)), Eq(Column("t", "c"), IntLit(3)))),
			"t.a = 1 AND (t.b = 2 OR t.c = 3)"},
		{&Aggregate{Func: AggCountStar}, "COUNT(*)"},
		{&Aggregate{Func: AggSum, Arg: Column("A", "Usage"), Distinct: true}, "SUM(DISTINCT A.Usage)"},
		{Param("machine"), ":machine"},
		{&Between{E: Column("t", "a"), Lo: IntLit(1), Hi: IntLit(2)}, "t.a BETWEEN 1 AND 2"},
		{&InList{E: Column("t", "a"), List: []Expr{IntLit(1), IntLit(2)}, Negate: true}, "t.a NOT IN (1, 2)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestAccumulators(t *testing.T) {
	vals := func(xs ...interface{}) []value.Value {
		out := make([]value.Value, len(xs))
		for i, x := range xs {
			switch v := x.(type) {
			case int:
				out[i] = value.NewInt(int64(v))
			case float64:
				out[i] = value.NewFloat(v)
			case nil:
				out[i] = value.Null
			}
		}
		return out
	}
	cases := []struct {
		name string
		agg  *Aggregate
		in   []value.Value
		want value.Value
	}{
		{"count skips nulls", &Aggregate{Func: AggCount, Arg: Column("t", "a")}, vals(1, nil, 2), value.NewInt(2)},
		{"count empty", &Aggregate{Func: AggCount, Arg: Column("t", "a")}, nil, value.NewInt(0)},
		{"count star counts nulls", &Aggregate{Func: AggCountStar}, vals(nil, nil), value.NewInt(2)},
		{"sum int", &Aggregate{Func: AggSum, Arg: Column("t", "a")}, vals(1, 2, 3), value.NewInt(6)},
		{"sum promotes to float", &Aggregate{Func: AggSum, Arg: Column("t", "a")}, vals(1, 0.5), value.NewFloat(1.5)},
		{"sum all null is null", &Aggregate{Func: AggSum, Arg: Column("t", "a")}, vals(nil, nil), value.Null},
		{"avg", &Aggregate{Func: AggAvg, Arg: Column("t", "a")}, vals(1, 2, nil, 3), value.NewFloat(2)},
		{"avg empty is null", &Aggregate{Func: AggAvg, Arg: Column("t", "a")}, nil, value.Null},
		{"min", &Aggregate{Func: AggMin, Arg: Column("t", "a")}, vals(3, nil, 1, 2), value.NewInt(1)},
		{"max", &Aggregate{Func: AggMax, Arg: Column("t", "a")}, vals(3, nil, 1, 2), value.NewInt(3)},
		{"min empty is null", &Aggregate{Func: AggMin, Arg: Column("t", "a")}, vals(nil), value.Null},
		{"count distinct", &Aggregate{Func: AggCount, Arg: Column("t", "a"), Distinct: true}, vals(1, 1, 2, nil, 2), value.NewInt(2)},
		{"sum distinct", &Aggregate{Func: AggSum, Arg: Column("t", "a"), Distinct: true}, vals(5, 5, 3), value.NewInt(8)},
		{"sum distinct int/float dedupe", &Aggregate{Func: AggSum, Arg: Column("t", "a"), Distinct: true}, vals(1, 1.0, 2), value.NewFloat(3)},
	}
	for _, c := range cases {
		acc, err := NewAccumulator(c.agg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, v := range c.in {
			if err := acc.Add(v); err != nil {
				t.Fatalf("%s: Add(%s): %v", c.name, v, err)
			}
		}
		if got := acc.Result(); !value.NullEq(got, c.want) {
			t.Errorf("%s: Result() = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestAccumulatorTypeErrors(t *testing.T) {
	sum, _ := NewAccumulator(&Aggregate{Func: AggSum, Arg: Column("t", "a")})
	if err := sum.Add(value.NewString("x")); err == nil {
		t.Error("SUM over a string must error")
	}
	mm, _ := NewAccumulator(&Aggregate{Func: AggMin, Arg: Column("t", "a")})
	if err := mm.Add(value.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	if err := mm.Add(value.NewString("x")); err == nil {
		t.Error("MIN over incomparable values must error")
	}
}
