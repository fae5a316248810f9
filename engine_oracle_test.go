package gbj

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestEngineModeOracle is the public-API analogue of the core package's
// Main Theorem oracle: over randomized schemas, data and queries, the
// engine must return the same multiset under ModeAlways (transform
// whenever valid), ModeNever (never transform) and ModeCost (the default),
// crossed with the executor's data representation (row-at-a-time vs
// vectorized batches) and worker count (serial vs parallel) — twelve runs
// per query, all byte-identical after canonical sorting. This exercises
// the full stack: parser, binder, subquery materialization, substitution
// rescue, predicate expansion, HAVING splitting, physical strategy
// selection, ORDER BY handling, and the vectorized kernels.
func TestEngineModeOracle(t *testing.T) {
	iterations := 400
	if testing.Short() {
		iterations = 50
	}
	engineConfigs := []struct {
		name        string
		vectorize   bool
		parallelism int
	}{
		{"row/serial", false, 0},
		{"vec/serial", true, 0},
		{"row/parallel", false, 3},
		{"vec/parallel", true, 3},
	}
	r := rand.New(rand.NewSource(1994))
	for i := 0; i < iterations; i++ {
		e, query := buildEngineInstance(t, r)
		var ref []string
		refLabel := ""
		for _, mode := range []Mode{ModeAlways, ModeNever, ModeCost} {
			reconfigure(t, e, func(c *Config) { c.Mode = mode })
			for _, cfg := range engineConfigs {
				reconfigure(t, e, func(c *Config) {
					c.Vectorize = cfg.vectorize
					c.Parallelism = cfg.parallelism
				})
				res, err := e.QueryOptionsContext(context.Background(), query, nil)
				if err != nil {
					t.Fatalf("iteration %d (mode %v, %s): %v\nquery: %s", i, mode, cfg.name, err, query)
				}
				rows := canonicalRows(res)
				if ref == nil {
					ref = rows
					refLabel = fmt.Sprintf("mode %v, %s", mode, cfg.name)
					continue
				}
				if !slices.Equal(ref, rows) {
					t.Fatalf("iteration %d: mode %v, %s disagrees with %s\nquery: %s\nreference: %v\ngot:       %v",
						i, mode, cfg.name, refLabel, query, ref, rows)
				}
			}
		}
	}
}

// buildEngineInstance creates a fresh engine with random data and returns a
// random query against it.
func buildEngineInstance(t *testing.T, r *rand.Rand) (*Engine, string) {
	t.Helper()
	e := New()
	e.MustExec(`
		CREATE TABLE Dim (id INTEGER PRIMARY KEY, label CHARACTER(10), grp INTEGER);
		CREATE TABLE Fact (fid INTEGER PRIMARY KEY, did INTEGER, v INTEGER)`)
	nDim := 1 + r.Intn(5)
	for d := 0; d < nDim; d++ {
		e.MustExec(fmt.Sprintf(`INSERT INTO Dim VALUES (%d, 'L%d', %d)`, d, d%2, d%3))
	}
	nFact := r.Intn(12)
	for f := 0; f < nFact; f++ {
		did := "NULL"
		if r.Intn(5) != 0 {
			did = fmt.Sprintf("%d", r.Intn(nDim+2)) // sometimes dangling... no FK declared
		}
		e.MustExec(fmt.Sprintf(`INSERT INTO Fact VALUES (%d, %s, %d)`, f, did, r.Intn(10)))
	}

	aggs := []string{
		"SUM(F.v)", "COUNT(*)", "COUNT(F.v), MIN(F.v)", "AVG(F.v)", "COUNT(DISTINCT F.v)",
	}
	groups := []string{
		"D.id, D.label",
		"D.id",
		"D.label",
		"D.grp",
		"F.did",
	}
	g := groups[r.Intn(len(groups))]
	// Occasionally wrap Dim in a derived table (same alias and columns,
	// so the rest of the query is unchanged): the derived-key machinery
	// must keep the modes equivalent.
	dimRef := "Dim D"
	if r.Intn(4) == 0 {
		dimRef = "(SELECT D0.id AS id, D0.label AS label, D0.grp AS grp FROM Dim D0) D"
	}
	query := fmt.Sprintf(
		"SELECT %s, %s FROM Fact F, %s WHERE F.did = D.id", g, aggs[r.Intn(len(aggs))], dimRef)
	if r.Intn(3) == 0 {
		query += fmt.Sprintf(" AND D.grp = %d", r.Intn(3))
	}
	if r.Intn(5) == 0 {
		query += " AND F.v IN (SELECT D2.grp FROM Dim D2)"
	}
	query += " GROUP BY " + g
	if r.Intn(4) == 0 {
		query += " HAVING COUNT(*) > 1"
	}
	if r.Intn(4) == 0 {
		first := g
		if i := indexOfComma(g); i > 0 {
			first = g[:i]
		}
		query += " ORDER BY " + stripQualifier(first)
	}
	return e, query
}

func indexOfComma(s string) int {
	for i := range s {
		if s[i] == ',' {
			return i
		}
	}
	return -1
}

func stripQualifier(col string) string {
	for i := range col {
		if col[i] == '.' {
			return col[i+1:]
		}
	}
	return col
}

// canonicalRows renders a result as a sorted multiset of rows. Every cell is
// tagged with its Go type, so int64(1) and float64(1) are different answers.
func canonicalRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = fmt.Sprintf("%T:%v", v, v)
		}
		out[i] = strings.Join(cells, "|")
	}
	slices.Sort(out)
	return out
}
