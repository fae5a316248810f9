package gbj

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/obs"
)

// The star instance of the tests below: Fact rows reference dims
// round-robin and GroupID takes one value per six Fact rows — the benchmark's
// shapes at a size a unit test can afford.
const (
	starShapeC      = `SELECT D.DimID, D.Label, COUNT(F.FID), SUM(F.V) FROM Fact F, Dim D WHERE F.DimID = D.DimID GROUP BY D.DimID, D.Label ORDER BY DimID LIMIT 10`
	starShapeGroups = `SELECT F.GroupID, COUNT(F.FID), SUM(F.V) FROM Fact F, Dim D WHERE F.DimID = D.DimID GROUP BY F.GroupID ORDER BY GroupID LIMIT 100`
)

func starEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	e.MustExec(`
		CREATE TABLE Dim (DimID INTEGER PRIMARY KEY, Label CHARACTER(12));
		CREATE TABLE Fact (FID INTEGER PRIMARY KEY, DimID INTEGER, GroupID INTEGER, V INTEGER)`)
	return e
}

func loadStar(t *testing.T, e *Engine, facts, dims int) {
	t.Helper()
	var sb strings.Builder
	for d := 0; d < dims; d++ {
		fmt.Fprintf(&sb, "%d,dim%05d\n", d, d)
	}
	if _, err := e.LoadCSV("Dim", strings.NewReader(sb.String()), false); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	for f := 0; f < facts; f++ {
		// 7 is coprime to the dim counts used, so DimID arrives unsorted.
		fmt.Fprintf(&sb, "%d,%d,%d,%d\n", f, f*7%dims, f/6, f%100)
	}
	if _, err := e.LoadCSV("Fact", strings.NewReader(sb.String()), false); err != nil {
		t.Fatal(err)
	}
}

// TestEstimatesFollowLoads: the statistics behind the eager/lazy choice are
// recounted when a table has grown. An engine that planned a query over
// empty tables and was then loaded must estimate exactly what an engine
// loaded from the start estimates.
func TestEstimatesFollowLoads(t *testing.T) {
	const query = `SELECT D.DimID, D.Label, COUNT(F.FID), SUM(F.V) FROM Fact F, Dim D WHERE F.DimID = D.DimID GROUP BY D.DimID, D.Label`
	used := starEngine(t)
	if _, err := used.QueryOptionsContext(context.Background(), query, nil); err != nil {
		t.Fatal(err)
	}
	loadStar(t, used, 2000, 100)
	fresh := starEngine(t)
	loadStar(t, fresh, 2000, 100)
	got, err := used.Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("estimates after a load differ from a fresh engine's\nsame engine:\n%s\nfresh engine:\n%s", got, want)
	}
}

// TestOrderByOverGroupingSortsGroupsNotRows pins, by operator counts, where
// the work of ORDER BY over grouping output is done: every GroupBy hashes its
// N input rows into G groups (never sorts them), and the Sort/TopK boundary
// above sees those G group rows — on the row and the vectorized engine, at
// one worker and at four. Only an input the executor can prove sorted makes
// grouping stream, and then it builds nothing.
func TestOrderByOverGroupingSortsGroupsNotRows(t *testing.T) {
	e := starEngine(t)
	loadStar(t, e, 6000, 100)
	var fact *algebra.Scan // the planner's Fact scan, reused below
	for _, q := range []struct {
		name, text string
		groups     int64
	}{
		{"c", starShapeC, 100},
		{"groups", starShapeGroups, 1000},
	} {
		for _, vectorize := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				reconfigure(t, e, func(c *Config) {
					c.Vectorize = vectorize
					c.Parallelism = workers
				})
				a, err := e.QueryAnalyzedContext(context.Background(), q.text, nil)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s vectorize=%t workers=%d", q.name, vectorize, workers)
				wantOp := "hash"
				if vectorize {
					wantOp = "vec-hash"
				}
				sorts := 0
				algebra.Walk(a.Plan, func(n algebra.Node) {
					m := a.Metrics.Lookup(n).Snapshot()
					switch n := n.(type) {
					case *algebra.Scan:
						if n.Table == "Fact" {
							fact = n
						}
					case *algebra.GroupBy:
						if m.Operator != wantOp {
							t.Errorf("%s: GroupBy ran as %q, want %q", label, m.Operator, wantOp)
						}
						// Each worker's partial table holds a group at most once.
						if m.RowsOut != q.groups || m.BuildEntries < q.groups || m.BuildEntries > int64(workers)*q.groups {
							t.Errorf("%s: GroupBy built %d entries for %d groups, want %d groups built once per worker at most",
								label, m.BuildEntries, m.RowsOut, q.groups)
						}
					case *algebra.Sort:
						sorts++
						if m.RowsOut != q.groups {
							t.Errorf("%s: the Sort boundary saw %d rows, want the %d group rows", label, m.RowsOut, q.groups)
						}
					}
				})
				if sorts != 1 {
					t.Errorf("%s: plan has %d Sort nodes, want 1", label, sorts)
				}
			}
		}
	}

	// A Sort below the GroupBy: the order is proven, so grouping streams.
	groupID := expr.ColumnID{Table: "F", Name: "GroupID"}
	group := &algebra.GroupBy{
		Input:     &algebra.Sort{Input: fact, Keys: []algebra.SortItem{{Col: groupID}}},
		GroupCols: []expr.ColumnID{groupID},
		Aggs: []algebra.AggItem{{
			E:  &expr.Aggregate{Func: expr.AggSum, Arg: expr.Column("F", "V")},
			As: expr.ColumnID{Name: "s"},
		}},
	}
	for _, vectorize := range []bool{false, true} {
		col := obs.NewCollector()
		res, err := exec.Run(group, e.store.Snapshot(), &exec.Options{Vectorize: vectorize, Metrics: col})
		if err != nil {
			t.Fatal(err)
		}
		m := col.Lookup(group).Snapshot()
		if len(res.Rows) != 1000 || m.Operator != "stream" || m.BuildEntries != 0 {
			t.Errorf("vectorize=%t: GroupBy over sorted input ran as %q with %d rows and build=%d, want stream, 1000 rows, build=0",
				vectorize, m.Operator, len(res.Rows), m.BuildEntries)
		}
	}
}

// TestPipelinedPlanCountsMatchSerial pins, by operator counts, what a
// pipelined run reports. The groups shape at two workers — scan → probe →
// partial group tables, then the group rows → project → TopK — joins all
// 48 000 Fact rows (every one finds its dim) and builds the sum of the
// chunks' partial tables, and EXPLAIN ANALYZE still shows a row count and an
// inclusive time on every node although none of the streaming ones is ever
// pulled. At any worker count every node's input and output cardinality is
// the serial run's.
func TestPipelinedPlanCountsMatchSerial(t *testing.T) {
	const facts, dims, groups = 48000, 1000, 8000
	e := starEngine(t)
	loadStar(t, e, facts, dims)
	analyze := func(workers int) *Analysis {
		t.Helper()
		reconfigure(t, e, func(c *Config) { c.Parallelism = workers })
		a, err := e.QueryAnalyzedContext(context.Background(), starShapeGroups, nil)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	type counts struct{ in, out int64 }
	nodeCounts := func(a *Analysis) (c []counts) {
		algebra.Walk(a.Plan, func(n algebra.Node) {
			m := a.Metrics.Lookup(n).Snapshot()
			c = append(c, counts{m.RowsIn, m.RowsOut})
		})
		return c
	}
	serial := nodeCounts(analyze(1))
	// Fact is cut into one contiguous chunk per worker and a group is six
	// consecutive rows: a chunk boundary that is no multiple of six splits one
	// group over two partial tables.
	for workers, build := range map[int]int64{2: groups, 3: groups + 2, 8: groups} {
		a := analyze(workers)
		got := nodeCounts(a)
		for i := range serial {
			if got[i] != serial[i] {
				t.Errorf("workers=%d: node %d has rows in/out %+v, the serial run %+v", workers, i, got[i], serial[i])
			}
		}
		algebra.Walk(a.Plan, func(n algebra.Node) {
			m := a.Metrics.Lookup(n).Snapshot()
			switch n.(type) {
			case *algebra.Join:
				if m.RowsOut != facts || m.ProbeHits != facts || m.BuildEntries != dims {
					t.Errorf("workers=%d: Join put out %d rows with hits=%d build=%d, want %d, %d and %d",
						workers, m.RowsOut, m.ProbeHits, m.BuildEntries, facts, facts, dims)
				}
			case *algebra.GroupBy:
				if m.Operator != "hash" || m.RowsOut != groups || m.BuildEntries != build {
					t.Errorf("workers=%d: GroupBy ran as %q, %d rows, build=%d: want hash, %d rows and the partial tables' sum %d",
						workers, m.Operator, m.RowsOut, m.BuildEntries, groups, build)
				}
			}
		})
		if workers != 2 {
			continue
		}
		text := a.String()
		for _, want := range []string{"-- 48000 rows", "hits=48000", "op=hash build=8000"} {
			if !strings.Contains(text, want) {
				t.Errorf("EXPLAIN ANALYZE at two workers lacks %q:\n%s", want, text)
			}
		}
		for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
			if strings.Contains(line, " -- ") && !strings.Contains(line, "time=") {
				t.Errorf("EXPLAIN ANALYZE at two workers: node without an inclusive time: %s", line)
			}
		}
	}
}
