// Package modelcheck brute-forces the Main Theorem on tiny databases.
//
// The static certifier (plancheck.CrossCheck) re-derives FD1/FD2 from the
// catalog; this package attacks the same claim from the opposite side: it
// enumerates EVERY database with up to k rows per table over small value
// domains — including NULLs, duplicate rows and int/float key mixing — and
// executes every claimed-equivalent execution on each database, comparing
// its output multiset exactly with workload.RefEval's. The executions are
// the variants of the oracle matrix's fault-free cells (matrix.go), one axis
// at a time: lazy vs eager (standard vs transformed plan), row vs
// vectorized, every worker count, join and grouping strategy, and every
// cluster size and shipping strategy.
//
// Any disagreement is shrunk by a greedy delta-debugging minimizer (drop
// one row at a time while the failure persists) before being reported, so
// a counterexample is always near-minimal and directly readable.
//
// With k rows per table and a pool of m candidate rows there are
// Σ_{s≤k} C(m+s-1, s) multisets per table; the builtin scenarios keep m
// small enough that exhaustive enumeration finishes in seconds while still
// covering the semantic corners (NULL grouping keys, NULL join keys,
// duplicate join partners, key collisions rejected by constraints).
package modelcheck

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// Scenario is one schema + query + candidate-row pool to exhaust.
type Scenario struct {
	// Name identifies the scenario in reports.
	Name string
	// Tables are the schema definitions, created in order.
	Tables []*schema.Table
	// Pool lists the candidate rows per table; the checker enumerates
	// every multiset of up to Config.K of them. Databases violating a
	// declared constraint (duplicate keys) are skipped, not errors.
	Pool map[string][]value.Row
	// Query is the SQL text whose plan pairs are checked.
	Query string
}

// Config parameterizes a model-checking run.
type Config struct {
	// K is the maximum number of rows per table (the enumeration bound).
	K int
	// Scenarios replaces the builtin scenario set when non-empty.
	Scenarios []Scenario
}

// Counterexample is one minimized equivalence failure.
type Counterexample struct {
	Scenario string
	Query    string
	// Variant names the execution that disagreed with the reference.
	Variant string
	// Database is the minimized failing database.
	Database map[string][]value.Row
	// Want and Got are the result multisets, as kind-tagged fingerprints.
	Want, Got []string
}

// String renders the counterexample for reports.
func (c *Counterexample) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario %s, variant %s\nquery: %s\n", c.Scenario, c.Variant, c.Query)
	names := make([]string, 0, len(c.Database))
	for name := range c.Database {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "%s:\n", name)
		for _, row := range c.Database[name] {
			fmt.Fprintf(&sb, "  %v\n", row)
		}
	}
	fmt.Fprintf(&sb, "want: %v\ngot:  %v", c.Want, c.Got)
	return sb.String()
}

// Result summarizes a run.
type Result struct {
	// Scenarios is the number of scenarios exhausted.
	Scenarios int
	// Databases is the number of constraint-satisfying databases
	// enumerated and executed.
	Databases int
	// PlanPairs is the number of comparisons with the reference performed
	// (one per database per variant).
	PlanPairs int
	// Counterexamples holds every minimized disagreement (empty on a
	// clean run).
	Counterexamples []*Counterexample
}

// Run model-checks every scenario up to cfg.K rows per table.
func Run(cfg Config) (*Result, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("modelcheck: K must be at least 1, got %d", cfg.K)
	}
	scenarios := cfg.Scenarios
	if len(scenarios) == 0 {
		scenarios = Builtin()
	}
	res := &Result{}
	for i := range scenarios {
		if err := runScenario(&scenarios[i], cfg.K, res); err != nil {
			return nil, fmt.Errorf("modelcheck: scenario %s: %w", scenarios[i].Name, err)
		}
		res.Scenarios++
	}
	return res, nil
}

func runScenario(sc *Scenario, k int, res *Result) error {
	// Plan once against an empty store: plan shapes depend only on the
	// catalog, and reusing them across databases is what makes exhaustive
	// enumeration affordable.
	planStore, err := buildStore(sc, nil)
	if err != nil {
		return err
	}
	ps, err := plans(planStore, sc.Query, false)
	if err != nil {
		return err
	}
	variants := modelVariants(ps)

	// Enumerate the databases: the cross product over tables of all
	// multisets of up to k pool rows.
	names := make([]string, 0, len(sc.Tables))
	for _, t := range sc.Tables {
		names = append(names, t.Name)
	}
	perTable := make([][][]value.Row, len(names))
	for i, name := range names {
		perTable[i] = rowMultisets(sc.Pool[name], k)
	}
	db := make(map[string][]value.Row, len(names))
	var visit func(ti int) error
	visit = func(ti int) error {
		if ti == len(names) {
			return checkDatabase(sc, db, ps, variants, res)
		}
		for _, rows := range perTable[ti] {
			db[names[ti]] = rows
			if err := visit(ti + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return visit(0)
}

// reference is RefEval's output on one database, as a multiset.
func reference(ps []algebra.Node, store *storage.Store) ([]string, error) {
	rows, err := workload.RefEval(ps[0], store, nil)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return workload.Multiset(rows), nil
}

// output is the variant's output on one database, as a multiset; a failed
// run's output is its error.
func output(ps []algebra.Node, store *storage.Store, v Variant) []string {
	res, err := v.run(ps, store, &exec.Options{}, nil)
	if err != nil {
		return []string{"error: " + err.Error()}
	}
	return workload.Multiset(res.Rows)
}

// checkDatabase executes every variant against one database and records a
// minimized counterexample for each disagreement with the reference.
func checkDatabase(sc *Scenario, db map[string][]value.Row, ps []algebra.Node, variants []Variant, res *Result) error {
	store, err := buildStore(sc, db)
	if err != nil {
		return nil // constraint-violating database: skip, don't fail
	}
	res.Databases++
	want, err := reference(ps, store)
	if err != nil {
		return err
	}
	for _, v := range variants {
		res.PlanPairs++
		got := output(ps, store, v)
		if slices.Equal(want, got) {
			continue
		}
		minimized := minimize(sc, db, ps, v)
		mWant, mGot := want, got
		if mStore, err := buildStore(sc, minimized); err == nil {
			if w, err := reference(ps, mStore); err == nil {
				mWant, mGot = w, output(ps, mStore, v)
			}
		}
		res.Counterexamples = append(res.Counterexamples, &Counterexample{
			Scenario: sc.Name,
			Query:    sc.Query,
			Variant:  v.String(),
			Database: cloneDB(minimized),
			Want:     mWant,
			Got:      mGot,
		})
	}
	return nil
}

// disagrees reports whether the variant still diverges from the reference
// on the database (an execution error counts as divergence).
func disagrees(sc *Scenario, db map[string][]value.Row, ps []algebra.Node, v Variant) bool {
	store, err := buildStore(sc, db)
	if err != nil {
		return false // not a valid database
	}
	want, err := reference(ps, store)
	return err == nil && !slices.Equal(want, output(ps, store, v))
}

// minimize greedily shrinks a failing database: repeatedly drop any single
// row whose removal keeps the disagreement, until the database is 1-minimal.
func minimize(sc *Scenario, db map[string][]value.Row, ps []algebra.Node, v Variant) map[string][]value.Row {
	cur := cloneDB(db)
	for {
		shrunk := false
		for name, rows := range cur {
			for i := range rows {
				cand := cloneDB(cur)
				cand[name] = append(append([]value.Row{}, rows[:i]...), rows[i+1:]...)
				if disagrees(sc, cand, ps, v) {
					cur = cand
					shrunk = true
					break
				}
			}
			if shrunk {
				break
			}
		}
		if !shrunk {
			return cur
		}
	}
}

// buildStore creates the scenario's tables and inserts the database rows,
// failing on any constraint violation.
func buildStore(sc *Scenario, db map[string][]value.Row) (*storage.Store, error) {
	s := storage.NewStore(schema.NewCatalog())
	for _, def := range sc.Tables {
		if err := s.CreateTable(def); err != nil {
			return nil, err
		}
		for _, row := range db[def.Name] {
			if err := s.Insert(def.Name, append(value.Row{}, row...)); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

func cloneDB(db map[string][]value.Row) map[string][]value.Row {
	out := make(map[string][]value.Row, len(db))
	for name, rows := range db {
		out[name] = append([]value.Row{}, rows...)
	}
	return out
}

// rowMultisets enumerates every multiset of 0..k pool rows as index-sorted
// row slices.
func rowMultisets(pool []value.Row, k int) [][]value.Row {
	var out [][]value.Row
	var build func(start int, cur []value.Row)
	build = func(start int, cur []value.Row) {
		out = append(out, append([]value.Row{}, cur...))
		if len(cur) == k {
			return
		}
		for i := start; i < len(pool); i++ {
			build(i, append(cur, pool[i]))
		}
	}
	build(0, nil)
	return out
}
