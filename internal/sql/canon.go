package sql

// Canonical serialization of SELECT statements, the engine's plan-cache
// key. Two query texts that parse to the same AST — regardless of
// whitespace, keyword case, redundant parentheses or quoting that changes
// nothing — canonicalize to the same string, and the string parses back to
// that AST, so two different ASTs can never share it (FuzzCanonical holds
// the renderer to this). The expression package's String methods print for
// people — a subquery as "<subquery>", operands without the parentheses a
// reader can infer — so the key has its own renderer.

import (
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/value"
)

// Canonical renders the statement in a single normalized spelling that
// re-parses to the same statement: the clause order is fixed, every
// compound operand and subquery is parenthesized, identifiers the lexer
// would not read back as written are quoted, and literals keep their kind.
func Canonical(s *SelectStmt) string {
	var b strings.Builder
	writeCanonical(&b, s)
	return b.String()
}

func writeCanonical(b *strings.Builder, s *SelectStmt) {
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.Star && it.Table != "":
			writeIdent(b, it.Table)
			b.WriteString(".*")
		case it.Star:
			b.WriteString("*")
		default:
			writeExpr(b, it.E)
			writeAlias(b, it.Alias)
		}
	}
	b.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		if t.Subquery != nil {
			writeSubquery(b, t.Subquery)
		} else {
			writeIdent(b, t.Name)
		}
		writeAlias(b, t.Alias)
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		writeExpr(b, s.Where)
	}
	for i, c := range s.GroupBy {
		if i == 0 {
			b.WriteString(" GROUP BY ")
		} else {
			b.WriteString(", ")
		}
		writeColumn(b, c)
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		writeExpr(b, s.Having)
	}
	for i, o := range s.OrderBy {
		if i == 0 {
			b.WriteString(" ORDER BY ")
		} else {
			b.WriteString(", ")
		}
		writeColumn(b, o.Col)
		if o.Desc {
			b.WriteString(" DESC")
		} else {
			b.WriteString(" ASC")
		}
	}
	if s.HasLimit {
		b.WriteString(" LIMIT ")
		b.WriteString(strconv.FormatInt(s.Limit, 10))
	}
}

func writeExpr(b *strings.Builder, e expr.Expr) {
	switch n := e.(type) {
	case *expr.ColumnRef:
		writeColumn(b, n.ID)
	case *expr.Literal:
		switch v := n.Val; v.Kind() {
		case value.KindString:
			b.WriteString("'" + strings.ReplaceAll(v.Str(), "'", "''") + "'")
		case value.KindFloat: // a point or an exponent keeps it from reading back as an integer
			f := strconv.FormatFloat(v.Float(), 'g', -1, 64)
			if !strings.ContainsAny(f, ".e") {
				f += ".0"
			}
			b.WriteString(f)
		default:
			b.WriteString(v.String())
		}
	case *expr.Binary:
		writeOperand(b, n.L)
		b.WriteString(" " + n.Op.String() + " ")
		writeOperand(b, n.R)
	case *expr.Unary:
		if n.Op == expr.OpNot {
			b.WriteString("NOT ")
		} else {
			b.WriteString("-")
		}
		b.WriteByte('(')
		writeExpr(b, n.E)
		b.WriteByte(')')
	case *expr.IsNull:
		writeOperand(b, n.E)
		b.WriteString(" IS" + not(n.Negate) + " NULL")
	case *expr.InList:
		writeOperand(b, n.E)
		b.WriteString(not(n.Negate) + " IN (")
		for i, x := range n.List {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, x)
		}
		b.WriteByte(')')
	case *expr.Between:
		writeOperand(b, n.E)
		b.WriteString(not(n.Negate) + " BETWEEN ")
		writeOperand(b, n.Lo)
		b.WriteString(" AND ")
		writeOperand(b, n.Hi)
	case *expr.Like:
		writeOperand(b, n.E)
		b.WriteString(not(n.Negate) + " LIKE ")
		writeOperand(b, n.Pattern)
	case *expr.InSubquery:
		writeOperand(b, n.E)
		b.WriteString(not(n.Negate) + " IN ")
		writeSubquery(b, n.Query.(*SelectStmt))
	case *expr.ExistsSubquery:
		if n.Negate {
			b.WriteString("NOT ")
		}
		b.WriteString("EXISTS ")
		writeSubquery(b, n.Query.(*SelectStmt))
	case *expr.ScalarSubquery:
		writeSubquery(b, n.Query.(*SelectStmt))
	case *expr.Aggregate:
		if n.Func == expr.AggCountStar {
			b.WriteString("COUNT(*)")
			return
		}
		b.WriteString(n.Func.String() + "(")
		if n.Distinct {
			b.WriteString("DISTINCT ")
		}
		writeExpr(b, n.Arg)
		b.WriteByte(')')
	default: // *expr.HostVar: ":name", the lexer's own spelling
		b.WriteString(e.String())
	}
}

// writeOperand parenthesizes every operand that is not a single token or
// already delimited, so no precedence or associativity rule is needed to
// read the tree back.
func writeOperand(b *strings.Builder, e expr.Expr) {
	switch e.(type) {
	case *expr.ColumnRef, *expr.Literal, *expr.HostVar, *expr.Aggregate, *expr.ScalarSubquery:
		writeExpr(b, e)
	default:
		b.WriteByte('(')
		writeExpr(b, e)
		b.WriteByte(')')
	}
}

// not is the " NOT" of a negated predicate.
func not(negate bool) string {
	if negate {
		return " NOT"
	}
	return ""
}

func writeSubquery(b *strings.Builder, s *SelectStmt) {
	b.WriteByte('(')
	writeCanonical(b, s)
	b.WriteByte(')')
}

func writeColumn(b *strings.Builder, c expr.ColumnID) {
	if c.Table != "" {
		writeIdent(b, c.Table)
		b.WriteByte('.')
	}
	writeIdent(b, c.Name)
}

func writeAlias(b *strings.Builder, alias string) {
	if alias != "" {
		b.WriteString(" AS ")
		writeIdent(b, alias)
	}
}

// writeIdent writes the name bare when the lexer reads it back as the same
// identifier, and as a delimited identifier otherwise.
func writeIdent(b *strings.Builder, name string) {
	bare := name != "" && isIdentStart(name[0]) && !keywords[strings.ToUpper(name)]
	for i := 1; bare && i < len(name); i++ {
		bare = isIdentPart(name[i])
	}
	if bare {
		b.WriteString(name)
		return
	}
	b.WriteString(`"` + strings.ReplaceAll(name, `"`, `""`) + `"`)
}
