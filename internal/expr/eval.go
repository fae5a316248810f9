package expr

import (
	"fmt"

	"repro/internal/value"
)

// Resolver maps a column reference to a position in the input row. It is
// implemented by plan-level row descriptors.
type Resolver interface {
	// Resolve returns the row index for the column, or an error if the
	// column is unknown or ambiguous.
	Resolve(id ColumnID) (int, error)
}

// ResolverFunc adapts a function to the Resolver interface.
type ResolverFunc func(id ColumnID) (int, error)

// Resolve calls f.
func (f ResolverFunc) Resolve(id ColumnID) (int, error) { return f(id) }

// Params supplies host-variable values at evaluation time.
type Params map[string]value.Value

// Bind returns a copy of e with every column reference resolved to a row
// position using r. Aggregates are bound through their argument. Binding an
// already-bound expression re-resolves it against the new resolver.
func Bind(e Expr, r Resolver) (Expr, error) {
	if e == nil {
		return nil, nil
	}
	switch n := e.(type) {
	case *ColumnRef:
		idx, err := r.Resolve(n.ID)
		if err != nil {
			return nil, err
		}
		return &ColumnRef{ID: n.ID, Index: idx}, nil
	case *Literal, *HostVar:
		return e, nil
	case *Binary:
		l, err := Bind(n.L, r)
		if err != nil {
			return nil, err
		}
		rr, err := Bind(n.R, r)
		if err != nil {
			return nil, err
		}
		return &Binary{Op: n.Op, L: l, R: rr}, nil
	case *Unary:
		in, err := Bind(n.E, r)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: n.Op, E: in}, nil
	case *IsNull:
		in, err := Bind(n.E, r)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: in, Negate: n.Negate}, nil
	case *InList:
		in, err := Bind(n.E, r)
		if err != nil {
			return nil, err
		}
		list := make([]Expr, len(n.List))
		for i, item := range n.List {
			if list[i], err = Bind(item, r); err != nil {
				return nil, err
			}
		}
		return &InList{E: in, List: list, Negate: n.Negate}, nil
	case *Between:
		in, err := Bind(n.E, r)
		if err != nil {
			return nil, err
		}
		lo, err := Bind(n.Lo, r)
		if err != nil {
			return nil, err
		}
		hi, err := Bind(n.Hi, r)
		if err != nil {
			return nil, err
		}
		return &Between{E: in, Lo: lo, Hi: hi, Negate: n.Negate}, nil
	case *Like:
		in, err := Bind(n.E, r)
		if err != nil {
			return nil, err
		}
		pat, err := Bind(n.Pattern, r)
		if err != nil {
			return nil, err
		}
		return &Like{E: in, Pattern: pat, Negate: n.Negate}, nil
	case *InSubquery:
		in, err := Bind(n.E, r)
		if err != nil {
			return nil, err
		}
		return &InSubquery{E: in, Query: n.Query, Negate: n.Negate}, nil
	case *ExistsSubquery:
		return n, nil
	case *ScalarSubquery:
		return n, nil
	case *Aggregate:
		if n.Arg == nil {
			return n, nil
		}
		arg, err := Bind(n.Arg, r)
		if err != nil {
			return nil, err
		}
		return &Aggregate{Func: n.Func, Arg: arg, Distinct: n.Distinct}, nil
	default:
		return nil, fmt.Errorf("expr: cannot bind %T", e)
	}
}

// Eval evaluates a bound scalar expression against a row. Boolean results
// are encoded as value.NewBool, with SQL unknown represented by NULL, so
// that nesting (e.g. NOT over a comparison) follows three-valued logic
// uniformly. Aggregates cannot be evaluated here; they are computed by the
// grouping operator and appear to downstream expressions as plain columns.
func Eval(e Expr, row value.Row, params Params) (value.Value, error) {
	switch n := e.(type) {
	case *ColumnRef:
		if n.Index < 0 {
			return value.Null, fmt.Errorf("expr: unbound column %s", n.ID)
		}
		if n.Index >= len(row) {
			return value.Null, fmt.Errorf("expr: column %s index %d out of range for row width %d", n.ID, n.Index, len(row))
		}
		return row[n.Index], nil
	case *Literal:
		return n.Val, nil
	case *HostVar:
		v, ok := params[n.Name]
		if !ok {
			return value.Null, fmt.Errorf("expr: no value supplied for host variable :%s", n.Name)
		}
		return v, nil
	case *Binary:
		return evalBinary(n, row, params)
	case *Unary:
		v, err := Eval(n.E, row, params)
		if err != nil {
			return value.Null, err
		}
		if n.Op == OpNot {
			return truthValue(value.Not(valueTruth(v))), nil
		}
		return negate(v)
	case *IsNull:
		v, err := Eval(n.E, row, params)
		if err != nil {
			return value.Null, err
		}
		return value.NewBool(v.IsNull() != n.Negate), nil
	case *InList:
		return evalInList(n, row, params)
	case *Between:
		return evalBetween(n, row, params)
	case *Like:
		return evalLike(n, row, params)
	case *InSubquery, *ExistsSubquery, *ScalarSubquery:
		return value.Null, fmt.Errorf("expr: subquery %s not materialized before execution", n)
	case *Aggregate:
		return value.Null, fmt.Errorf("expr: aggregate %s evaluated outside a grouping operator", n)
	default:
		return value.Null, fmt.Errorf("expr: cannot evaluate %T", e)
	}
}

// EvalTruth evaluates a predicate to an SQL2 truth value: NULL means
// unknown. A non-boolean, non-null result is an error.
func EvalTruth(e Expr, row value.Row, params Params) (value.Truth, error) {
	if e == nil {
		return value.True, nil // empty condition: every row qualifies
	}
	v, err := Eval(e, row, params)
	if err != nil {
		return value.False, err
	}
	switch v.Kind() {
	case value.KindNull:
		return value.Unknown, nil
	case value.KindBool:
		return value.TruthOf(v.Bool()), nil
	default:
		return value.False, fmt.Errorf("expr: predicate %s evaluated to non-boolean %s", e, v)
	}
}

// valueTruth maps a boolean-or-null value onto a Truth; any other value is
// treated as unknown (callers validate earlier where it matters).
func valueTruth(v value.Value) value.Truth {
	switch v.Kind() {
	case value.KindBool:
		return value.TruthOf(v.Bool())
	default:
		return value.Unknown
	}
}

// truthValue encodes a Truth back into a value (unknown ↦ NULL).
func truthValue(t value.Truth) value.Value {
	switch t {
	case value.True:
		return value.NewBool(true)
	case value.False:
		return value.NewBool(false)
	default:
		return value.Null
	}
}

func evalBinary(n *Binary, row value.Row, params Params) (value.Value, error) {
	// AND/OR evaluate both sides (no short-circuit: SQL requires the
	// three-valued table, and either side may be unknown).
	if n.Op.IsConnective() {
		lv, err := Eval(n.L, row, params)
		if err != nil {
			return value.Null, err
		}
		rv, err := Eval(n.R, row, params)
		if err != nil {
			return value.Null, err
		}
		if n.Op == OpAnd {
			return truthValue(value.And(valueTruth(lv), valueTruth(rv))), nil
		}
		return truthValue(value.Or(valueTruth(lv), valueTruth(rv))), nil
	}

	lv, err := Eval(n.L, row, params)
	if err != nil {
		return value.Null, err
	}
	rv, err := Eval(n.R, row, params)
	if err != nil {
		return value.Null, err
	}

	if n.Op.IsComparison() {
		sign, ok := value.Compare(lv, rv)
		if !ok {
			return value.Null, nil // unknown
		}
		var b bool
		switch n.Op {
		case OpEq:
			b = sign == 0
		case OpNe:
			b = sign != 0
		case OpLt:
			b = sign < 0
		case OpLe:
			b = sign <= 0
		case OpGt:
			b = sign > 0
		case OpGe:
			b = sign >= 0
		}
		return value.NewBool(b), nil
	}
	return arith(n.Op, lv, rv)
}

// arith implements +, -, *, / with NULL propagation. Integer arithmetic
// stays in int64; any float operand promotes the result to float. Division
// always yields a float; division by zero yields NULL (keeping NaN and the
// resulting hash/ordering anomalies out of the engine entirely).
func arith(op BinOp, l, r value.Value) (value.Value, error) {
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	if !l.IsNumeric() || !r.IsNumeric() {
		return value.Null, fmt.Errorf("expr: %s applied to non-numeric operands %s, %s", op, l, r)
	}
	if op == OpDiv {
		lf, _ := l.AsFloat()
		rf, _ := r.AsFloat()
		if rf == 0 {
			return value.Null, nil
		}
		return value.NewFloat(lf / rf), nil
	}
	if l.Kind() == value.KindInt && r.Kind() == value.KindInt {
		a, b := l.Int(), r.Int()
		switch op {
		case OpAdd:
			return value.NewInt(a + b), nil
		case OpSub:
			return value.NewInt(a - b), nil
		case OpMul:
			return value.NewInt(a * b), nil
		}
	}
	lf, _ := l.AsFloat()
	rf, _ := r.AsFloat()
	switch op {
	case OpAdd:
		return value.NewFloat(lf + rf), nil
	case OpSub:
		return value.NewFloat(lf - rf), nil
	case OpMul:
		return value.NewFloat(lf * rf), nil
	}
	return value.Null, fmt.Errorf("expr: unsupported arithmetic operator %s", op)
}

func negate(v value.Value) (value.Value, error) {
	switch v.Kind() {
	case value.KindNull:
		return value.Null, nil
	case value.KindInt:
		return value.NewInt(-v.Int()), nil
	case value.KindFloat:
		return value.NewFloat(-v.Float()), nil
	default:
		return value.Null, fmt.Errorf("expr: unary minus on %s", v.Kind())
	}
}

// evalInList implements SQL IN semantics: true if any element compares
// equal; unknown if no element is equal but some comparison was unknown;
// false otherwise. NOT IN negates under three-valued logic.
func evalInList(n *InList, row value.Row, params Params) (value.Value, error) {
	v, err := Eval(n.E, row, params)
	if err != nil {
		return value.Null, err
	}
	result := value.False
	for _, item := range n.List {
		iv, err := Eval(item, row, params)
		if err != nil {
			return value.Null, err
		}
		result = value.Or(result, value.Equal(v, iv))
	}
	if n.Negate {
		result = value.Not(result)
	}
	return truthValue(result), nil
}

func evalBetween(n *Between, row value.Row, params Params) (value.Value, error) {
	v, err := Eval(n.E, row, params)
	if err != nil {
		return value.Null, err
	}
	lo, err := Eval(n.Lo, row, params)
	if err != nil {
		return value.Null, err
	}
	hi, err := Eval(n.Hi, row, params)
	if err != nil {
		return value.Null, err
	}
	// v BETWEEN lo AND hi ≡ lo <= v AND v <= hi under 3VL.
	t := value.And(value.Not(value.Less(v, lo)), value.Not(value.Less(hi, v)))
	if n.Negate {
		t = value.Not(t)
	}
	return truthValue(t), nil
}

func evalLike(n *Like, row value.Row, params Params) (value.Value, error) {
	v, err := Eval(n.E, row, params)
	if err != nil {
		return value.Null, err
	}
	p, err := Eval(n.Pattern, row, params)
	if err != nil {
		return value.Null, err
	}
	if v.IsNull() || p.IsNull() {
		return value.Null, nil
	}
	if v.Kind() != value.KindString || p.Kind() != value.KindString {
		return value.Null, fmt.Errorf("expr: LIKE requires string operands, got %s and %s", v.Kind(), p.Kind())
	}
	m := likeMatch(v.Str(), p.Str())
	if n.Negate {
		m = !m
	}
	return value.NewBool(m), nil
}

// likeMatch matches s against an SQL LIKE pattern where % matches any
// (possibly empty) substring and _ matches exactly one character.
func likeMatch(s, pattern string) bool {
	// Iterative two-pointer matching with backtracking on the last %.
	si, pi := 0, 0
	star, sBack := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && pattern[pi] == '%':
			// Checked before the literal case: a '%' in s must not consume
			// the pattern's wildcard as if it were a literal.
			star = pi
			sBack = si
			pi++
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			sBack++
			si = sBack
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}
