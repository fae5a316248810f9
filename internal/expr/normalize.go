package expr

import (
	"errors"
	"fmt"

	"repro/internal/value"
)

// ErrTooLarge is returned by CNF/DNF when the normal form would exceed the
// clause cap. Callers (TestFD) treat it as "cannot decide", i.e. answer NO.
var ErrTooLarge = errors.New("expr: normal form exceeds clause limit")

// normalFormLimit caps the number of clauses produced by CNF/DNF
// conversion. Distribution is worst-case exponential; beyond this size
// TestFD gives up rather than stalling the optimizer (a NO answer is always
// safe — the transformation is simply not applied).
const normalFormLimit = 4096

// Conjuncts splits e on top-level ANDs into a flat list. A nil expression
// yields an empty list.
func Conjuncts(e Expr) []Expr {
	var out []Expr
	var split func(Expr)
	split = func(x Expr) {
		if x == nil {
			return
		}
		if b, ok := x.(*Binary); ok && b.Op == OpAnd {
			split(b.L)
			split(b.R)
			return
		}
		out = append(out, x)
	}
	split(e)
	return out
}

// negateComparison returns the comparison with the complementary operator.
// Under three-valued logic NOT(a < b) and (a >= b) agree on all inputs:
// both are unknown exactly when the operands are incomparable.
func negateComparison(b *Binary) *Binary {
	var op BinOp
	switch b.Op {
	case OpEq:
		op = OpNe
	case OpNe:
		op = OpEq
	case OpLt:
		op = OpGe
	case OpLe:
		op = OpGt
	case OpGt:
		op = OpLe
	case OpGe:
		op = OpLt
	default:
		panic("expr: negateComparison on non-comparison")
	}
	return &Binary{Op: op, L: b.L, R: b.R}
}

// NNF rewrites e into negation normal form: NOT is pushed inward through
// AND/OR by De Morgan's laws (valid in SQL2 3VL), double negations cancel,
// negated comparisons flip their operator, and negatable predicates
// (IS NULL, IN, BETWEEN, LIKE) absorb the negation into their Negate flag.
// Any remaining NOT wraps an atom that cannot be pushed further.
func NNF(e Expr) Expr {
	return nnf(e, false)
}

func nnf(e Expr, negated bool) Expr {
	if e == nil {
		return nil
	}
	switch n := e.(type) {
	case *Unary:
		if n.Op == OpNot {
			return nnf(n.E, !negated)
		}
	case *Binary:
		switch n.Op {
		case OpAnd, OpOr:
			op := n.Op
			if negated {
				if op == OpAnd {
					op = OpOr
				} else {
					op = OpAnd
				}
			}
			return &Binary{Op: op, L: nnf(n.L, negated), R: nnf(n.R, negated)}
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			if negated {
				return negateComparison(n)
			}
			return n
		}
	case *IsNull:
		if negated {
			return &IsNull{E: n.E, Negate: !n.Negate}
		}
		return n
	case *InList:
		if negated {
			return &InList{E: n.E, List: n.List, Negate: !n.Negate}
		}
		return n
	case *Between:
		if negated {
			return &Between{E: n.E, Lo: n.Lo, Hi: n.Hi, Negate: !n.Negate}
		}
		return n
	case *Like:
		if negated {
			return &Like{E: n.E, Pattern: n.Pattern, Negate: !n.Negate}
		}
		return n
	case *InSubquery:
		if negated {
			return &InSubquery{E: n.E, Query: n.Query, Negate: !n.Negate}
		}
		return n
	case *ExistsSubquery:
		if negated {
			return &ExistsSubquery{Query: n.Query, Negate: !n.Negate}
		}
		return n
	}
	if negated {
		return Not(e)
	}
	return e
}

// CNF converts e to conjunctive normal form and returns it as a list of
// clauses, each clause a list of atoms to be OR-ed. A nil expression yields
// no clauses (vacuously true). Returns ErrTooLarge past the clause cap.
func CNF(e Expr) ([][]Expr, error) {
	if e == nil {
		return nil, nil
	}
	return cnf(NNF(e))
}

func cnf(e Expr) ([][]Expr, error) {
	if b, ok := e.(*Binary); ok {
		switch b.Op {
		case OpAnd:
			l, err := cnf(b.L)
			if err != nil {
				return nil, err
			}
			r, err := cnf(b.R)
			if err != nil {
				return nil, err
			}
			out := append(l, r...)
			if len(out) > normalFormLimit {
				return nil, ErrTooLarge
			}
			return out, nil
		case OpOr:
			l, err := cnf(b.L)
			if err != nil {
				return nil, err
			}
			r, err := cnf(b.R)
			if err != nil {
				return nil, err
			}
			if len(l)*len(r) > normalFormLimit {
				return nil, ErrTooLarge
			}
			out := make([][]Expr, 0, len(l)*len(r))
			for _, cl := range l {
				for _, cr := range r {
					clause := make([]Expr, 0, len(cl)+len(cr))
					clause = append(clause, cl...)
					clause = append(clause, cr...)
					out = append(out, clause)
				}
			}
			return out, nil
		}
	}
	return [][]Expr{{e}}, nil
}

// DNF converts e to disjunctive normal form and returns it as a list of
// terms, each term a list of atoms to be AND-ed. A nil expression yields a
// single empty term (vacuously true). Returns ErrTooLarge past the cap.
func DNF(e Expr) ([][]Expr, error) {
	if e == nil {
		return [][]Expr{{}}, nil
	}
	return dnf(NNF(e))
}

func dnf(e Expr) ([][]Expr, error) {
	if b, ok := e.(*Binary); ok {
		switch b.Op {
		case OpOr:
			l, err := dnf(b.L)
			if err != nil {
				return nil, err
			}
			r, err := dnf(b.R)
			if err != nil {
				return nil, err
			}
			out := append(l, r...)
			if len(out) > normalFormLimit {
				return nil, ErrTooLarge
			}
			return out, nil
		case OpAnd:
			l, err := dnf(b.L)
			if err != nil {
				return nil, err
			}
			r, err := dnf(b.R)
			if err != nil {
				return nil, err
			}
			if len(l)*len(r) > normalFormLimit {
				return nil, ErrTooLarge
			}
			out := make([][]Expr, 0, len(l)*len(r))
			for _, tl := range l {
				for _, tr := range r {
					term := make([]Expr, 0, len(tl)+len(tr))
					term = append(term, tl...)
					term = append(term, tr...)
					out = append(out, term)
				}
			}
			return out, nil
		}
	}
	return [][]Expr{{e}}, nil
}

// SimplifyTruth folds boolean literals out of a predicate under 3VL:
// TRUE AND x → x, FALSE AND x → FALSE, TRUE OR x → TRUE, FALSE OR x → x,
// NOT literal → literal. NULL literals (unknown) are left in place: unknown
// does not short-circuit either connective to a constant on its own
// (FALSE AND unknown is FALSE, but x AND unknown is not x). The result may
// be nil (vacuously true predicate) when the whole expression folds to
// TRUE.
//
// Materialized EXISTS subqueries produce exactly these literal conjuncts,
// and dropping them keeps TestFD's clause analysis and the cost model's
// selectivity estimates clean.
func SimplifyTruth(e Expr) Expr {
	simplified := Rewrite(e, func(n Expr) Expr {
		switch x := n.(type) {
		case *Binary:
			if !x.Op.IsConnective() {
				return n
			}
			lv, lIsLit := boolLiteral(x.L)
			rv, rIsLit := boolLiteral(x.R)
			if x.Op == OpAnd {
				switch {
				case lIsLit && !lv, rIsLit && !rv:
					return Lit(value.NewBool(false))
				case lIsLit && lv:
					return x.R
				case rIsLit && rv:
					return x.L
				}
			} else {
				switch {
				case lIsLit && lv, rIsLit && rv:
					return Lit(value.NewBool(true))
				case lIsLit && !lv:
					return x.R
				case rIsLit && !rv:
					return x.L
				}
			}
		case *Unary:
			if x.Op == OpNot {
				if v, ok := boolLiteral(x.E); ok {
					return Lit(value.NewBool(!v))
				}
			}
		}
		return n
	})
	if v, ok := boolLiteral(simplified); ok && v {
		return nil // vacuously true
	}
	return simplified
}

// boolLiteral reports whether e is a TRUE/FALSE literal.
func boolLiteral(e Expr) (val, ok bool) {
	lit, isLit := e.(*Literal)
	if !isLit || lit.Val.Kind() != value.KindBool {
		return false, false
	}
	return lit.Val.Bool(), true
}

// AtomClass classifies an atomic condition for Algorithm TestFD (§6.3 of
// the paper).
type AtomClass uint8

const (
	// AtomOther is any atom that is not a Type 1 or Type 2 equality;
	// TestFD discards CNF clauses containing one.
	AtomOther AtomClass = iota
	// AtomColConst is a Type 1 atom: column = constant (or host variable,
	// whose value is fixed during evaluation).
	AtomColConst
	// AtomColCol is a Type 2 atom: column = column.
	AtomColCol
)

// EqAtom is a classified equality atom.
type EqAtom struct {
	Class AtomClass
	// Col is set for Type 1; Col and Col2 for Type 2.
	Col, Col2 ColumnID
	// Const is the constant/host-variable side of a Type 1 atom.
	Const Expr
}

// ClassifyAtom inspects an atomic condition and classifies it as Type 1
// (v = c), Type 2 (v1 = v2), or other. Both operand orders are recognized.
func ClassifyAtom(e Expr) EqAtom {
	b, ok := e.(*Binary)
	if !ok || b.Op != OpEq {
		return EqAtom{Class: AtomOther}
	}
	lc, lIsCol := b.L.(*ColumnRef)
	rc, rIsCol := b.R.(*ColumnRef)
	switch {
	case lIsCol && rIsCol:
		return EqAtom{Class: AtomColCol, Col: lc.ID, Col2: rc.ID}
	case lIsCol && isConstant(b.R):
		return EqAtom{Class: AtomColConst, Col: lc.ID, Const: b.R}
	case rIsCol && isConstant(b.L):
		return EqAtom{Class: AtomColConst, Col: rc.ID, Const: b.L}
	default:
		return EqAtom{Class: AtomOther}
	}
}

// isConstant reports whether e evaluates to a fixed value for the duration
// of a query: literals, host variables, and arithmetic over them.
func isConstant(e Expr) bool {
	constant := true
	Walk(e, func(n Expr) bool {
		switch n.(type) {
		case *ColumnRef, *Aggregate:
			constant = false
		}
		return constant
	})
	return constant
}

// FoldConstants evaluates constant subexpressions at plan time. Host
// variables are substituted from params when present. Errors during folding
// leave the node unfolded (it will error again at run time if reached).
func FoldConstants(e Expr, params Params) Expr {
	return Rewrite(e, func(n Expr) Expr {
		switch n.(type) {
		case *Literal, *ColumnRef, *Aggregate:
			return n
		}
		if h, ok := n.(*HostVar); ok {
			if v, hit := params[h.Name]; hit {
				return Lit(v)
			}
			return n
		}
		if !isConstant(n) {
			return n
		}
		v, err := Eval(n, nil, params)
		if err != nil {
			return n
		}
		return Lit(v)
	})
}

// ClassifyConjunct determines which side of the R1/R2 partition a conjunct
// belongs to, per §3 of the paper: C1 references only tables in left, C2
// only tables in right, and C0 references both. A conjunct referencing no
// columns at all is classified as C1 (it filters uniformly and may run
// anywhere).
type ConjunctSide uint8

// Conjunct sides per the paper's C1 ∧ C0 ∧ C2 decomposition.
const (
	SideC1 ConjunctSide = iota // only columns of R1
	SideC0                     // columns of both R1 and R2
	SideC2                     // only columns of R2
)

// String names the side as in the paper.
func (s ConjunctSide) String() string {
	switch s {
	case SideC1:
		return "C1"
	case SideC0:
		return "C0"
	case SideC2:
		return "C2"
	default:
		return fmt.Sprintf("ConjunctSide(%d)", uint8(s))
	}
}

// Classify assigns the conjunct to C1, C0 or C2 given the set of table
// qualifiers that make up R1 (everything else is R2).
func Classify(conjunct Expr, r1Tables map[string]bool) ConjunctSide {
	hasR1, hasR2 := false, false
	for _, t := range Tables(conjunct) {
		if r1Tables[t] {
			hasR1 = true
		} else {
			hasR2 = true
		}
	}
	switch {
	case hasR1 && hasR2:
		return SideC0
	case hasR2:
		return SideC2
	default:
		return SideC1
	}
}
