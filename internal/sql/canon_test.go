package sql

import "testing"

func parseQueryT(t *testing.T, text string) *SelectStmt {
	t.Helper()
	q, err := ParseQuery(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	return q
}

// Different spellings of the same query must canonicalize identically —
// that's what makes Canonical usable as a cache key.
func TestCanonicalNormalizesSpelling(t *testing.T) {
	pairs := [][2]string{
		{
			"SELECT a, SUM(b) FROM t GROUP BY a",
			"select   a ,  sum( b )\nfrom t group by a",
		},
		{
			"SELECT * FROM t WHERE a > 1 ORDER BY a",
			"SELECT *\tFROM t WHERE (a > 1) ORDER BY a ASC",
		},
		{
			"SELECT x.a FROM t AS x, u WHERE x.a = u.a",
			"select x.a from t x, u where x.a = u.a",
		},
	}
	for _, p := range pairs {
		a := Canonical(parseQueryT(t, p[0]))
		b := Canonical(parseQueryT(t, p[1]))
		if a != b {
			t.Errorf("canonical mismatch:\n %q -> %q\n %q -> %q", p[0], a, p[1], b)
		}
	}
}

// Semantic differences must produce different canonical strings.
func TestCanonicalSeparatesDistinctQueries(t *testing.T) {
	queries := []string{
		"SELECT a FROM t",
		"SELECT DISTINCT a FROM t",
		"SELECT a AS b FROM t",
		"SELECT a FROM t WHERE a > 1",
		"SELECT a FROM t WHERE a > 2",
		"SELECT a FROM t GROUP BY a",
		"SELECT a FROM t ORDER BY a",
		"SELECT a FROM t ORDER BY a DESC",
		"SELECT a FROM t LIMIT 0",
		"SELECT a FROM t LIMIT 1",
		"SELECT a FROM (SELECT a FROM t) s",
		"SELECT t.* FROM t, u",
		"SELECT * FROM t, u",
		// An embedded quote, a delimited identifier, a subquery, operator
		// nesting and a float with no fraction once rendered alike.
		"SELECT 'a', 'b' FROM t",
		"SELECT 'a'', ''b' FROM t",
		"SELECT a, b FROM t",
		`SELECT "a, b" FROM t`,
		"SELECT a FROM t WHERE a IN (SELECT b FROM u)",
		"SELECT a FROM t WHERE a IN (SELECT c FROM u)",
		"SELECT a - b - c FROM t",
		"SELECT a - (b - c) FROM t",
		"SELECT 1 FROM t",
		"SELECT 1.0 FROM t",
	}
	seen := make(map[string]string)
	for _, text := range queries {
		c := Canonical(parseQueryT(t, text))
		if prev, dup := seen[c]; dup {
			t.Errorf("queries %q and %q share canonical form %q", prev, text, c)
		}
		seen[c] = text
	}
}
