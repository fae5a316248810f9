package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// An Instance is one store and one query over it: the unit of the oracle
// corpus. Query is SQL for the optimizer to plan, unless Plan is set — a plan
// built by hand, which is then run as it is. Rename asks for the optimizer's
// standard plan under the paper's π_A as a pure rename (every column, in
// order, under another name): the optimizer's own over a GroupBy or a Scan,
// or one put by hand over a DISTINCT project or a Limit over a Sort.
type Instance struct {
	Store  *storage.Store
	Query  string
	Plan   algebra.Node
	Rename bool
}

// Draw draws the next instances of the corpus: the Example 1 instance at a
// random size with two queries, the Example 2 instance with one, or — three
// times in five — a NULL-key sweep store with three templates drawn from
// Templates.
func Draw(r *rand.Rand) ([]Instance, error) {
	switch r.Intn(5) {
	case 0:
		store, err := EmployeeDepartment(30+r.Intn(150), 2+r.Intn(12))
		return []Instance{{Store: store, Query: Example1Query}, {Store: store, Query: `
			SELECT D.Name, AVG(E.EmpID), COUNT(*)
			FROM Employee E, Department D WHERE E.DeptID = D.DeptID
			GROUP BY D.Name`}}, err
	case 1:
		store, err := PartSupplier(30+r.Intn(120), 2+r.Intn(8))
		return []Instance{{Store: store, Query: `
			SELECT S.SupplierNo, S.Name, COUNT(P.PartNo)
			FROM Part P, Supplier S WHERE P.SupplierNo = S.SupplierNo
			GROUP BY S.SupplierNo, S.Name`}}, err
	}
	store, err := NullKeySweep(r)
	if err != nil {
		return nil, err
	}
	templates := Templates(r)
	out := make([]Instance, 3)
	for i := range out {
		out[i] = templates[r.Intn(len(templates))]
		out[i].Store = store
	}
	return out, nil
}

// NullKeySweep is a small random Sweep instance plus up to five Fact rows
// whose join key and aggregate input are NULL: joins drop them and aggregates
// skip their values, on every execution path alike.
func NullKeySweep(r *rand.Rand) (*storage.Store, error) {
	store, err := Sweep(SweepParams{
		FactRows:      40 + r.Intn(160),
		DimRows:       3 + r.Intn(15),
		Groups:        2 + r.Intn(10),
		MatchFraction: 0.2 + 0.8*r.Float64(),
		Seed:          r.Int63(),
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < r.Intn(6); i++ {
		if err := store.Insert("Fact", value.Row{
			value.NewInt(int64(100000 + i)), value.Null, value.NewInt(int64(r.Intn(5))), value.Null,
		}); err != nil {
			return nil, err
		}
	}
	return store, nil
}

// Pipelines are the instances that reach every pipeline shape: the pipeline
// templates on four stores — a random one, one whose Fact spans several
// morsels of the given size, one with no Fact rows (the empty source) and one
// whose every join key is NULL (a probe that emits nothing).
func Pipelines(r *rand.Rand, morsel int) ([]Instance, error) {
	sweep := func(facts int) (*storage.Store, error) {
		return Sweep(SweepParams{FactRows: facts, DimRows: 12, Groups: 9, MatchFraction: 0.8, Seed: r.Int63()})
	}
	nullKeys, err := sweep(0)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 50; i++ {
		if err := nullKeys.Insert("Fact", value.Row{
			value.NewInt(int64(i)), value.Null, value.NewInt(int64(i % 7)), value.NewInt(int64(r.Intn(100))),
		}); err != nil {
			return nil, err
		}
	}
	random, err := NullKeySweep(r)
	if err != nil {
		return nil, err
	}
	large, err := sweep(2*morsel + 300)
	if err != nil {
		return nil, err
	}
	empty, err := sweep(0)
	if err != nil {
		return nil, err
	}
	var out []Instance
	for _, store := range []*storage.Store{random, large, empty, nullKeys} {
		for _, in := range pipelineTemplates(r) {
			in.Store = store
			out = append(out, in)
		}
	}
	return out, nil
}

// Templates are the corpus's queries over the Sweep schema, with fresh random
// literals: every aggregate kind, a filter, DISTINCT, COUNT(DISTINCT), a
// scalar aggregate, ORDER BY on all or on a prefix of the grouping columns
// with and without LIMIT, then the pipeline templates.
func Templates(r *rand.Rand) []Instance {
	cut := r.Intn(100)
	queries := []string{
		`SELECT D.DimID, D.Label, COUNT(F.FID), SUM(F.V)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY D.DimID, D.Label`,
		fmt.Sprintf(`SELECT D.DimID, D.Label, SUM(F.V)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID AND F.V < %d
		 GROUP BY D.DimID, D.Label`, cut),
		`SELECT D.DimID, MIN(F.V), MAX(F.V), AVG(F.V)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY D.DimID`,
		`SELECT F.GroupID, SUM(F.V), COUNT(*)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY F.GroupID`,
		`SELECT D.DimID, D.Label, COUNT(DISTINCT F.GroupID)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY D.DimID, D.Label`,
		`SELECT COUNT(F.FID), SUM(F.V), MIN(F.V)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID`,
		`SELECT D.DimID, D.Label, SUM(F.V)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY D.DimID, D.Label ORDER BY DimID DESC`,
		`SELECT DISTINCT F.GroupID
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID`,
		`SELECT F.GroupID, AVG(F.V), COUNT(F.V)
		 FROM Fact F WHERE F.V < 90
		 GROUP BY F.GroupID`,
		`SELECT F.GroupID, SUM(F.V), COUNT(*)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY F.GroupID ORDER BY GroupID`,
		fmt.Sprintf(`SELECT D.DimID, D.Label, SUM(F.V)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY D.DimID, D.Label ORDER BY DimID LIMIT %d`, 1+r.Intn(6)),
		fmt.Sprintf(`SELECT D.DimID, MAX(F.V)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY D.DimID ORDER BY DimID DESC LIMIT %d`, 1+r.Intn(4)),
		// ORDER BY on a strict prefix of the grouping columns: ties, so no
		// LIMIT (which tied rows it keeps is the strategy's to choose).
		`SELECT F.GroupID, D.Label, SUM(F.V), COUNT(*)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY F.GroupID, D.Label ORDER BY GroupID`,
		`SELECT F.GroupID, D.Label, SUM(F.V)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY F.GroupID, D.Label ORDER BY GroupID DESC`,
		// ORDER BY on all of them: a total order, with and without LIMIT.
		fmt.Sprintf(`SELECT F.GroupID, D.Label, MAX(F.V)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY F.GroupID, D.Label ORDER BY GroupID, Label LIMIT %d`, 1+r.Intn(8)),
		fmt.Sprintf(`SELECT F.GroupID, COUNT(F.FID), SUM(F.V)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY F.GroupID ORDER BY GroupID DESC LIMIT %d`, 1+r.Intn(6)),
	}
	out := make([]Instance, len(queries))
	for i, q := range queries {
		out[i].Query = q
	}
	return append(out, pipelineTemplates(r)...)
}

// pipelineTemplates are the templates whose plans above one worker are
// pipelines of several stages ending in each kind of sink — partial group
// tables, and the collection behind the result, a sort, a TopK, DISTINCT, a
// merge join's inputs and a join's build side (the join strategy decides
// which) — and the four renames, over each input whose rows a collection
// takes as they lie: a hash group's finished rows and a stored table (renames
// the optimizer makes), DISTINCT's survivors and a TopK's buffer (renames put
// over the optimizer's plan). Dim is joined twice for the three-table shapes.
func pipelineTemplates(r *rand.Rand) []Instance {
	cut := 20 + r.Intn(60)
	return []Instance{
		// filter → probe → group
		{Query: fmt.Sprintf(`SELECT F.GroupID, SUM(F.V), COUNT(*)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID AND F.V < %d
		 GROUP BY F.GroupID`, cut)},
		// probe → DISTINCT project
		{Query: `SELECT DISTINCT D.Label, F.GroupID
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID`},
		// probe with a residual → ORDER BY … LIMIT, and → ORDER BY
		{Query: fmt.Sprintf(`SELECT F.FID, D.Label, F.V
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID AND F.V > D.DimID
		 ORDER BY FID LIMIT %d`, 1+r.Intn(40))},
		{Query: `SELECT F.FID, D.Label, F.V
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID AND F.V > D.DimID
		 ORDER BY FID DESC`},
		// probe → root, unordered: the collection itself
		{Query: fmt.Sprintf(`SELECT F.FID, D.Label
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID AND F.V < %d`, cut)},
		// nested loop (no equi-key under any strategy) → group
		{Query: `SELECT D.DimID, COUNT(*), SUM(F.V)
		 FROM Fact F, Dim D WHERE F.V < D.DimID
		 GROUP BY D.DimID`},
		// probe → probe → group, and → root
		{Query: `SELECT D.Label, D2.Label, COUNT(*), SUM(F.V)
		 FROM Fact F, Dim D, Dim D2 WHERE F.DimID = D.DimID AND F.GroupID = D2.DimID
		 GROUP BY D.Label, D2.Label`},
		{Query: fmt.Sprintf(`SELECT F.FID, D.Label, D2.Label
		 FROM Fact F, Dim D, Dim D2 WHERE F.DimID = D.DimID AND F.GroupID = D2.DimID AND F.V < %d`, cut)},
		// the renames: over a hash group, a stored table, DISTINCT and a TopK
		{Rename: true, Query: `SELECT F.GroupID, SUM(F.V), COUNT(*)
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 GROUP BY F.GroupID`},
		{Rename: true, Query: `SELECT F.FID, F.DimID, F.GroupID, F.V FROM Fact F`},
		{Rename: true, Query: `SELECT DISTINCT D.Label, F.GroupID
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID`},
		{Rename: true, Query: fmt.Sprintf(`SELECT F.FID, D.Label, F.V
		 FROM Fact F, Dim D WHERE F.DimID = D.DimID
		 ORDER BY FID DESC LIMIT %d`, 1+r.Intn(40))},
	}
}

// RandomPlan is one instance of the corpus's hand-built half: two tiny tables
// L(a, b) and R(c, d) full of NULLs and duplicates, and a random plan over
// them — a scan or an equi-join (with a residual or not), maybe filtered, under
// a group, a projection, a DISTINCT projection or nothing.
func RandomPlan(r *rand.Rand) ([]Instance, error) {
	s := storage.NewStore(schema.NewCatalog())
	l := &schema.Table{Name: "L", Columns: []schema.Column{{Name: "a", Type: value.KindInt}, {Name: "b", Type: value.KindInt}}}
	rt := &schema.Table{Name: "R", Columns: []schema.Column{{Name: "c", Type: value.KindInt}, {Name: "d", Type: value.KindString}}}
	for _, def := range []*schema.Table{l, rt} {
		if err := s.CreateTable(def); err != nil {
			return nil, err
		}
	}
	randInt := func() value.Value {
		if r.Intn(4) == 0 {
			return value.Null
		}
		return value.NewInt(int64(r.Intn(3)))
	}
	for i, n := 0, r.Intn(8); i < n; i++ {
		if err := s.Insert("L", value.Row{randInt(), randInt()}); err != nil {
			return nil, err
		}
	}
	for i, n := 0, r.Intn(6); i < n; i++ {
		d := value.Null
		if r.Intn(4) != 0 {
			d = value.NewString(string(rune('x' + r.Intn(2))))
		}
		if err := s.Insert("R", value.Row{randInt(), d}); err != nil {
			return nil, err
		}
	}
	scan := func(def *schema.Table) *algebra.Scan {
		cols := make(algebra.Schema, len(def.Columns))
		for i, c := range def.Columns {
			cols[i] = algebra.ColDesc{ID: expr.ColumnID{Table: def.Name, Name: c.Name}, Type: c.Type}
		}
		return algebra.NewScan(def.Name, def.Name, cols)
	}
	var plan algebra.Node = scan(l)
	equi := expr.Eq(expr.Column("L", "a"), expr.Column("R", "c"))
	switch r.Intn(3) {
	case 1:
		plan = &algebra.Join{L: plan, R: scan(rt), Cond: equi}
	case 2:
		plan = &algebra.Join{L: plan, R: scan(rt), Cond: expr.And(equi,
			expr.NewBinary(expr.OpGt, expr.Column("L", "b"), expr.IntLit(0)))}
	}
	if r.Intn(2) == 0 {
		plan = &algebra.Select{Input: plan,
			Cond: expr.NewBinary(expr.OpLt, expr.Column("L", "b"), expr.IntLit(int64(r.Intn(3))))}
	}
	switch r.Intn(3) {
	case 0:
		plan = &algebra.GroupBy{Input: plan, GroupCols: []expr.ColumnID{{Table: "L", Name: "a"}}, Aggs: []algebra.AggItem{
			{E: &expr.Aggregate{Func: expr.AggCountStar}, As: expr.ColumnID{Name: "n"}},
			{E: &expr.Aggregate{Func: expr.AggSum, Arg: expr.Column("L", "b")}, As: expr.ColumnID{Name: "s"}},
		}}
	case 1:
		plan = &algebra.Project{Input: plan, Distinct: r.Intn(2) == 0,
			Items: []algebra.ProjItem{{E: expr.Column("L", "a"), As: expr.ColumnID{Name: "a"}}}}
	}
	return []Instance{{Store: s, Plan: plan}}, nil
}
