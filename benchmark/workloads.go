package main

// The five workloads. Names are fixed: later issues cite them. Each one
// exists to put most of a query's time into different layers, so that an
// optimisation has one workload that exercises it and one that bypasses it
// (README.md has the table).

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"time"
)

// query is one read template. Variants are different spellings of the same
// statement that sql.Canonical folds onto one plan-cache key.
type query struct {
	id       string
	variants []string
	// ordered queries have a total ORDER BY, so responses are compared in
	// order; the rest are compared as multisets.
	ordered bool
	// kvCheck, when set, verifies a response over the writable kv table by
	// the val = 2*grp invariant instead of against a reference result.
	kvCheck func(row []any) bool
	// eager is the plan the workload relies on: true when the optimizer
	// must push the group-by below the join for this query.
	eager bool
}

// op is one read of a caller's sequence: a spelling of a template.
type op struct {
	q       *query
	variant int
}

// text returns the SQL of a read op.
func (o op) text() string { return o.q.variants[o.variant] }

// workload binds a dataset to an engine configuration, a query set and an
// op mix.
type workload struct {
	name string
	why  string
	// dataset is "star" or "hr".
	dataset string
	// facts is the star dataset's Fact row count; GroupID takes facts/6
	// values.
	facts int
	// server workloads go through server.New on a loopback listener with
	// one server.Client session per caller; the rest call the engine
	// in-process.
	server      bool
	callers     int
	vectorize   bool
	parallelism int
	nodes       int
	queries     []*query
	// writeEvery, when positive, makes each caller INSERT into kv on that
	// schedule, between reads.
	writeEvery time.Duration
	// mixed workloads draw each read at random over templates and
	// spellings; the rest take their queries in turn.
	mixed bool
}

// Server configuration shared by the serve_* workloads.
const (
	planCacheSize = 64
	poolBytes     = 256 << 20
	perQueryBytes = 4 << 20
)

// The star query shapes, shared between workloads.
const (
	// shapeA is the paper's Example 1: grouping on the dimension key, so
	// the group-by can move below the join (1000 groups from 120000 rows).
	shapeA = `SELECT D.DimID, D.Label, COUNT(F.FID), SUM(F.V) FROM Fact F, Dim D WHERE F.DimID = D.DimID GROUP BY D.DimID, D.Label`
	// shapeGroups is the paper's Figure 8 pattern: grouping on a Fact
	// column with one value per six rows, where grouping first shrinks
	// little and the join shrinks nothing.
	shapeGroups = `SELECT F.GroupID, COUNT(F.FID), SUM(F.V) FROM Fact F, Dim D WHERE F.DimID = D.DimID GROUP BY F.GroupID ORDER BY GroupID LIMIT 100`
)

func workloads() []*workload {
	a := &query{id: "a", variants: []string{shapeA}, eager: true}
	groups := &query{id: "groups", variants: []string{shapeGroups}, ordered: true}
	return []*workload{
		{
			name:      "olap_eager",
			why:       "few groups over many rows: exec/vec scan, key-encode and group kernels do almost all the work, sql/core/server almost none",
			dataset:   "star",
			facts:     starFacts,
			callers:   1,
			vectorize: true,
			queries: []*query{
				a,
				{id: "b", variants: []string{`SELECT D.Region, COUNT(F.FID), SUM(F.V) FROM Fact F, Dim D WHERE F.DimID = D.DimID AND F.V < 50 GROUP BY D.Region`}},
				{id: "c", variants: []string{shapeA + ` ORDER BY DimID LIMIT 10`}, ordered: true, eager: true},
			},
		},
		{
			name:        "olap_groups",
			why:         "one group per six rows: the same exec layer hash-table- and sort-bound in the row/parallel family, where eager aggregation is the wrong choice",
			dataset:     "star",
			facts:       starFacts,
			callers:     1,
			parallelism: 2,
			queries: []*query{
				groups,
				{id: "groups_region", variants: []string{`SELECT F.GroupID, D.Region, COUNT(F.FID), SUM(F.V) FROM Fact F, Dim D WHERE F.DimID = D.DimID GROUP BY F.GroupID, D.Region`}},
			},
		},
		{
			name:       "serve_mixed",
			why:        "small tables behind the server: sql parse/canon, core optimize/plan cache, plancheck recertify, storage snapshot/insert and server decode/admission/encode dominate; writes empty the plan cache",
			dataset:    "hr",
			server:     true,
			callers:    2,
			queries:    hrQueries(),
			writeEvery: 20 * time.Millisecond,
			mixed:      true,
		},
		{
			name:    "serve_wide",
			why:     "24000-row responses behind the server: result conversion, JSON encoding and client decoding are a large share of latency",
			dataset: "star",
			facts:   starFacts,
			server:  true,
			callers: 2,
			queries: []*query{
				{id: "wide", variants: []string{`SELECT F.FID, D.Label, F.V FROM Fact F, Dim D WHERE F.DimID = D.DimID AND F.V < 50`}},
				a,
			},
		},
		{
			name:    "dist_ship",
			why:     "the only workload through dist.Compile, Cluster.Run and Link.Ship: (a) ships a thousand groups' partial aggregates, the many-groups query eight times as many",
			dataset: "star",
			facts:   starFacts,
			callers: 1,
			nodes:   4,
			queries: []*query{a, groups},
		},
	}
}

// workloadNamed returns the named workload; unknown names are an error,
// not a silent default.
func workloadNamed(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// hrTemplates are the serve_mixed reads. {…} marks parentheses that are
// redundant: one variant keeps them, the others drop them.
var hrTemplates = []struct {
	id, text string
	ordered  bool
	eager    bool
	kvCheck  func(row []any) bool
}{
	{id: "dept_totals", ordered: true, eager: true,
		text: `SELECT d.DeptID, d.Name, COUNT(e.EmpID), SUM(e.Salary) FROM Emp e, Dept d WHERE {e.DeptID = d.DeptID} GROUP BY d.DeptID, d.Name ORDER BY DeptID`},
	{id: "emp_counts", ordered: true,
		text: `SELECT DeptID, COUNT(EmpID) FROM Emp WHERE {Salary >= 0} GROUP BY DeptID ORDER BY DeptID`},
	{id: "kv_total", kvCheck: kvTotalOK,
		text: `SELECT COUNT(id), SUM(val), SUM(grp) FROM kv WHERE {id > 0}`},
	{id: "name_range",
		text: `SELECT d.Name, MAX(e.Salary), MIN(e.Salary) FROM Emp e, Dept d WHERE {e.DeptID = d.DeptID} GROUP BY d.Name`},
	{id: "high_paid",
		text: `SELECT e.EmpID, e.Salary, d.Name FROM Emp e, Dept d WHERE {e.DeptID = d.DeptID} AND {e.Salary > 1450}`},
	{id: "kv_groups", ordered: true, kvCheck: kvGroupOK,
		text: `SELECT grp, COUNT(id), SUM(val) FROM kv WHERE {id > 0} GROUP BY grp ORDER BY grp`},
	{id: "dept_avg", eager: true,
		text: `SELECT d.DeptID, AVG(e.Salary) FROM Emp e, Dept d WHERE {e.DeptID = d.DeptID} AND {d.DeptID < 6} GROUP BY d.DeptID`},
	{id: "dept_staff", ordered: true,
		text: `SELECT EmpID, Salary FROM Emp WHERE {Salary > 1400} AND {DeptID = 3} ORDER BY EmpID`},
}

var sqlKeyword = regexp.MustCompile(`\b(SELECT|FROM|WHERE|GROUP|ORDER|BY|AND|LIMIT|COUNT|SUM|MIN|MAX|AVG)\b`)

// hrQueries expands each template into four spellings: as written,
// lower-case keywords, irregular whitespace, and redundant parentheses.
// Aliases and identifiers are identical in all four, because the
// canonicalizer does not rename them.
func hrQueries() []*query {
	strip := strings.NewReplacer("{", "", "}", "")
	parens := strings.NewReplacer("{", "(", "}", ")")
	var out []*query
	for _, t := range hrTemplates {
		plain := strip.Replace(t.text)
		out = append(out, &query{
			id: t.id,
			variants: []string{
				plain,
				sqlKeyword.ReplaceAllStringFunc(plain, strings.ToLower),
				"  " + strings.ReplaceAll(plain, " ", "\n\t ") + " ",
				parens.Replace(t.text),
			},
			ordered: t.ordered,
			eager:   t.eager,
			kvCheck: t.kvCheck,
		})
	}
	return out
}

// kvTotalOK checks (COUNT(id), SUM(val), SUM(grp)) over any kv snapshot.
func kvTotalOK(row []any) bool {
	if len(row) != 3 {
		return false
	}
	n, ok1 := asFloat(row[0])
	val, ok2 := asFloat(row[1])
	grp, ok3 := asFloat(row[2])
	return ok1 && ok2 && ok3 && n >= hrKVSeed && val == 2*grp
}

// kvGroupOK checks one (grp, COUNT(id), SUM(val)) row.
func kvGroupOK(row []any) bool {
	if len(row) != 3 {
		return false
	}
	grp, ok1 := asFloat(row[0])
	n, ok2 := asFloat(row[1])
	val, ok3 := asFloat(row[2])
	return ok1 && ok2 && ok3 && n > 0 && val == 2*grp*n
}

// sequence is one caller's seeded stream of reads: the workload's queries
// in turn, or for a mixed workload a uniform draw over templates and
// spellings.
type sequence struct {
	w   *workload
	rng *rand.Rand
	n   int
}

// newSequence returns caller's read stream for the seed. Streams of
// different callers differ; the same (seed, caller) always gives the same
// stream.
func newSequence(w *workload, seed int64, caller int) *sequence {
	return &sequence{w: w, rng: rand.New(rand.NewSource(seed*7919 + int64(caller) + 1))}
}

func (s *sequence) next() op {
	s.n++
	if s.w.mixed {
		q := s.w.queries[s.rng.Intn(len(s.w.queries))]
		return op{q: q, variant: s.rng.Intn(len(q.variants))}
	}
	return op{q: s.w.queries[(s.n-1)%len(s.w.queries)]}
}

// insertSQL renders the n-th write of a caller: a fresh kv row that keeps
// val = 2*grp. Keys are disjoint between callers and from the seed rows.
func insertSQL(caller, n int) string {
	id := kvID(caller, n)
	grp := id % kvGroups
	return fmt.Sprintf("INSERT INTO kv VALUES (%d, %d, %d)", id, grp, 2*grp)
}

// kvID is the key of a caller's n-th inserted row.
func kvID(caller, n int) int { return (caller+1)*1_000_000 + n }
