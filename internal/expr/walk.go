package expr

// Walk calls fn for every node of the expression tree in pre-order. If fn
// returns false the subtree below the node is skipped. A nil expression is
// a no-op.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch n := e.(type) {
	case *Binary:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case *Unary:
		Walk(n.E, fn)
	case *IsNull:
		Walk(n.E, fn)
	case *InList:
		Walk(n.E, fn)
		for _, item := range n.List {
			Walk(item, fn)
		}
	case *Between:
		Walk(n.E, fn)
		Walk(n.Lo, fn)
		Walk(n.Hi, fn)
	case *Like:
		Walk(n.E, fn)
		Walk(n.Pattern, fn)
	case *InSubquery:
		Walk(n.E, fn)
	case *Aggregate:
		Walk(n.Arg, fn)
	}
}

// Columns returns every distinct column referenced by e, in first-seen
// order.
func Columns(e Expr) []ColumnID {
	var out []ColumnID
	seen := make(map[ColumnID]bool)
	Walk(e, func(n Expr) bool {
		if c, ok := n.(*ColumnRef); ok && !seen[c.ID] {
			seen[c.ID] = true
			out = append(out, c.ID)
		}
		return true
	})
	return out
}

// Tables returns every distinct table qualifier referenced by e, in
// first-seen order.
func Tables(e Expr) []string {
	var out []string
	seen := make(map[string]bool)
	for _, c := range Columns(e) {
		if !seen[c.Table] {
			seen[c.Table] = true
			out = append(out, c.Table)
		}
	}
	return out
}

// HasAggregate reports whether e contains an aggregate-function application.
func HasAggregate(e Expr) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if _, ok := n.(*Aggregate); ok {
			found = true
		}
		return !found
	})
	return found
}

// Aggregates returns every aggregate node in e, in pre-order.
func Aggregates(e Expr) []*Aggregate {
	var out []*Aggregate
	Walk(e, func(n Expr) bool {
		if a, ok := n.(*Aggregate); ok {
			out = append(out, a)
			return false // aggregates do not nest in our query class
		}
		return true
	})
	return out
}

// Rewrite returns a copy of e in which fn has been applied bottom-up to
// every node: children are rewritten first, then fn transforms the rebuilt
// node. fn returning its argument unchanged is the identity.
func Rewrite(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch n := e.(type) {
	case *ColumnRef, *Literal, *HostVar:
		return fn(e)
	case *Binary:
		return fn(&Binary{Op: n.Op, L: Rewrite(n.L, fn), R: Rewrite(n.R, fn)})
	case *Unary:
		return fn(&Unary{Op: n.Op, E: Rewrite(n.E, fn)})
	case *IsNull:
		return fn(&IsNull{E: Rewrite(n.E, fn), Negate: n.Negate})
	case *InList:
		list := make([]Expr, len(n.List))
		for i, item := range n.List {
			list[i] = Rewrite(item, fn)
		}
		return fn(&InList{E: Rewrite(n.E, fn), List: list, Negate: n.Negate})
	case *Between:
		return fn(&Between{E: Rewrite(n.E, fn), Lo: Rewrite(n.Lo, fn), Hi: Rewrite(n.Hi, fn), Negate: n.Negate})
	case *Like:
		return fn(&Like{E: Rewrite(n.E, fn), Pattern: Rewrite(n.Pattern, fn), Negate: n.Negate})
	case *InSubquery:
		return fn(&InSubquery{E: Rewrite(n.E, fn), Query: n.Query, Negate: n.Negate})
	case *ExistsSubquery, *ScalarSubquery:
		return fn(e)
	case *Aggregate:
		return fn(&Aggregate{Func: n.Func, Arg: Rewrite(n.Arg, fn), Distinct: n.Distinct})
	default:
		return fn(e)
	}
}

// RewritePre applies fn to each ORIGINAL node in pre-order: if fn returns a
// non-nil replacement the node is replaced wholesale and its subtree is not
// visited; otherwise the node is rebuilt from its rewritten children.
// Because fn sees the original pointers, it supports identity-keyed
// substitution (e.g. replacing specific aggregate nodes with their computed
// results).
func RewritePre(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	if repl := fn(e); repl != nil {
		return repl
	}
	switch n := e.(type) {
	case *ColumnRef, *Literal, *HostVar:
		return e
	case *Binary:
		return &Binary{Op: n.Op, L: RewritePre(n.L, fn), R: RewritePre(n.R, fn)}
	case *Unary:
		return &Unary{Op: n.Op, E: RewritePre(n.E, fn)}
	case *IsNull:
		return &IsNull{E: RewritePre(n.E, fn), Negate: n.Negate}
	case *InList:
		list := make([]Expr, len(n.List))
		for i, item := range n.List {
			list[i] = RewritePre(item, fn)
		}
		return &InList{E: RewritePre(n.E, fn), List: list, Negate: n.Negate}
	case *Between:
		return &Between{E: RewritePre(n.E, fn), Lo: RewritePre(n.Lo, fn), Hi: RewritePre(n.Hi, fn), Negate: n.Negate}
	case *Like:
		return &Like{E: RewritePre(n.E, fn), Pattern: RewritePre(n.Pattern, fn), Negate: n.Negate}
	case *InSubquery:
		return &InSubquery{E: RewritePre(n.E, fn), Query: n.Query, Negate: n.Negate}
	case *ExistsSubquery, *ScalarSubquery:
		return e
	case *Aggregate:
		return &Aggregate{Func: n.Func, Arg: RewritePre(n.Arg, fn), Distinct: n.Distinct}
	default:
		return e
	}
}

// SubstituteColumns returns a copy of e with each column reference replaced
// according to the mapping (unmapped columns are left as-is). It is used by
// the optimizer when retargeting predicates and select-list items onto the
// output of a pushed-down aggregation.
func SubstituteColumns(e Expr, mapping map[ColumnID]ColumnID) Expr {
	return Rewrite(e, func(n Expr) Expr {
		if c, ok := n.(*ColumnRef); ok {
			if to, hit := mapping[c.ID]; hit {
				return &ColumnRef{ID: to, Index: -1}
			}
		}
		return n
	})
}

// Equal reports structural equality of two expressions (ignoring bound
// indexes, which are an evaluation artifact).
func Equal(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case *ColumnRef:
		y, ok := b.(*ColumnRef)
		return ok && x.ID == y.ID
	case *Literal:
		y, ok := b.(*Literal)
		if !ok {
			return false
		}
		// Literal equality is =ⁿ so NULL literals match each other.
		if x.Val.IsNull() || y.Val.IsNull() {
			return x.Val.IsNull() && y.Val.IsNull()
		}
		return x.Val.Kind() == y.Val.Kind() && x.Val.String() == y.Val.String()
	case *HostVar:
		y, ok := b.(*HostVar)
		return ok && x.Name == y.Name
	case *Binary:
		y, ok := b.(*Binary)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Unary:
		y, ok := b.(*Unary)
		return ok && x.Op == y.Op && Equal(x.E, y.E)
	case *IsNull:
		y, ok := b.(*IsNull)
		return ok && x.Negate == y.Negate && Equal(x.E, y.E)
	case *InList:
		y, ok := b.(*InList)
		if !ok || x.Negate != y.Negate || len(x.List) != len(y.List) || !Equal(x.E, y.E) {
			return false
		}
		for i := range x.List {
			if !Equal(x.List[i], y.List[i]) {
				return false
			}
		}
		return true
	case *Between:
		y, ok := b.(*Between)
		return ok && x.Negate == y.Negate && Equal(x.E, y.E) && Equal(x.Lo, y.Lo) && Equal(x.Hi, y.Hi)
	case *Like:
		y, ok := b.(*Like)
		return ok && x.Negate == y.Negate && Equal(x.E, y.E) && Equal(x.Pattern, y.Pattern)
	case *InSubquery:
		y, ok := b.(*InSubquery)
		return ok && x.Negate == y.Negate && x.Query == y.Query && Equal(x.E, y.E)
	case *ExistsSubquery:
		y, ok := b.(*ExistsSubquery)
		return ok && x.Negate == y.Negate && x.Query == y.Query
	case *ScalarSubquery:
		y, ok := b.(*ScalarSubquery)
		return ok && x.Query == y.Query
	case *Aggregate:
		y, ok := b.(*Aggregate)
		return ok && x.Func == y.Func && x.Distinct == y.Distinct && Equal(x.Arg, y.Arg)
	default:
		return false
	}
}
