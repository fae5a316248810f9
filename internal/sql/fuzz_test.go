package sql

import (
	"reflect"
	"testing"

	"repro/internal/value"
)

// FuzzParse checks the lexer and parser never panic and that accepted
// SELECT statements round-trip through a second parse of the raw input
// deterministically.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT a FROM T",
		"SELECT D.DeptID, COUNT(E.EmpID) FROM Employee E, Department D WHERE E.DeptID = D.DeptID GROUP BY D.DeptID",
		"CREATE TABLE T (a INTEGER PRIMARY KEY, b CHARACTER(30) NOT NULL)",
		"CREATE DOMAIN D SMALLINT CHECK VALUE > 0 AND VALUE < 100",
		"INSERT INTO T VALUES (1, 'x'), (2, NULL)",
		"SELECT * FROM T WHERE a IN (SELECT b FROM U) AND EXISTS (SELECT c FROM V)",
		"SELECT a FROM T WHERE x BETWEEN 1 AND 2 OR NOT y LIKE 'z%'",
		"SELECT -1e9, 'it''s', :param FROM \"T\"",
		"EXPLAIN SELECT a FROM T ORDER BY a DESC",
		"SELECT a FROM T HAVING COUNT(*) > (SELECT MAX(v) FROM U)",
		"SELECT a FROM T; SELECT b FROM U;",
		"-- comment\nSELECT a FROM T",
		"SELECT a FROM T WHERE a = 0x12", // not hex: lexes as 0 then ident
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmts1, err1 := Parse(input)
		stmts2, err2 := Parse(input)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("non-deterministic parse of %q: %v vs %v", input, err1, err2)
		}
		if err1 == nil && len(stmts1) != len(stmts2) {
			t.Fatalf("non-deterministic statement count for %q", input)
		}
	})
}

// FuzzLex checks the lexer terminates and never panics.
func FuzzLex(f *testing.F) {
	for _, s := range []string{"SELECT 'a''b' <> <= >= != :v \"q\"\"q\"", "--", "'", "\"", ":"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		toks, err := Lex(input)
		if err == nil && (len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF) {
			t.Fatalf("lexing %q did not end with EOF", input)
		}
	})
}

// FuzzCanonical holds the plan-cache key to injectivity: for any text that
// parses as a SELECT, the canonical form parses back to the same tree, and
// canonicalizes to itself. Two distinct trees therefore never share a key.
func FuzzCanonical(f *testing.F) {
	seeds := []string{
		"SELECT 'a'', ''b', 'it''s' FROM t",
		`SELECT "a, b", "x""y", "select", "" FROM "T T" AS "from"`,
		"SELECT a FROM t WHERE a IN (SELECT b FROM u) AND NOT EXISTS (SELECT c FROM v)",
		"SELECT a FROM t HAVING COUNT(*) > (SELECT MAX(v) FROM u)",
		"SELECT s.a FROM (SELECT a FROM t) s WHERE s.a NOT IN (1, -2, 3.5)",
		"SELECT a - (b - c), -(a * (b + c)), 1.0, -0.0, 1e30, :p FROM t",
		"SELECT a FROM t WHERE NOT a = 1 OR (b BETWEEN 1 AND 2 AND c NOT LIKE 'x%') OR d IS NOT NULL",
		"SELECT DISTINCT COUNT(DISTINCT a), SUM(a + b) AS total FROM t GROUP BY t.c ORDER BY total DESC LIMIT 5",
	}
	for _, s := range append(seeds, hrReads...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := ParseQuery(input)
		if err != nil {
			return
		}
		c := Canonical(q)
		back, err := ParseQuery(c)
		if err != nil {
			t.Fatalf("canonical form of %q does not parse: %q: %v", input, c, err)
		}
		if !sameTree(reflect.ValueOf(q), reflect.ValueOf(back)) {
			t.Fatalf("canonical form of %q parses to another tree: %q", input, c)
		}
		if c2 := Canonical(back); c2 != c {
			t.Fatalf("canonical form of %q is not a fixed point: %q -> %q", input, c, c2)
		}
	})
}

var valueType = reflect.TypeOf(value.Value{})

// sameTree compares two parsed trees field by field. Literal values compare
// by kind and content: a string value holds a pointer into the text it was
// parsed from, so reflect.DeepEqual would tell two parses apart.
func sameTree(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() || a.Type() != b.Type() {
		return false
	}
	if a.Type() == valueType {
		x, y := a.Interface().(value.Value), b.Interface().(value.Value)
		return x.Kind() == y.Kind() && x.String() == y.String()
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameTree(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameTree(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameTree(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}
