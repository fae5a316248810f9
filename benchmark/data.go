package main

// Seeded datasets. A dataset is described twice from one table list: as SQL
// and CSV text for the engine under test (which receives only generated SQL
// and rows), and as schema.Table definitions and value.Rows for the shadow
// store the traced run stages queries against.
//
// Cardinalities are exact and seed-independent — every seed yields the same
// number of rows, groups and matches — so a metric's spread across seeds is
// measurement noise, not data. The seed decides which row carries which
// value.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/schema"
	"repro/internal/value"
)

// Star dataset sizes. DimID spreads Fact evenly over starDims values;
// GroupID spreads it over one value per starGroupRows rows — the
// many-groups side the paper's Section 7 warns about. starFacts is as large
// as lets the slowest workload (olap_groups, some 100 ms a query) collect
// well over the 100 samples a p90 needs in a 20-second window.
const (
	starFacts     = 48000
	starDims      = 1000
	starRegions   = 10
	starGroupRows = 6
	starVRange    = 100
)

// HR dataset sizes: small enough that parsing, planning and the server,
// not the executor, set the latency of serve_mixed.
const (
	hrEmps  = 100
	hrDepts = 10
	// hrKVSeed is how many rows kv starts with. A 20-second window adds
	// 1998, give or take two; from 50 rows that ended on 2048, where one
	// row more or less moved live_heap_mb by 4 %.
	hrKVSeed = 150
	// kvGroups bounds kv.grp; every kv row satisfies val = 2*grp.
	kvGroups = 5
)

// table is one base table of a dataset with its generated rows.
type table struct {
	def  *schema.Table
	rows []value.Row
}

// dataset is a seeded set of tables.
type dataset struct {
	tables []*table
}

func intCol(name string) schema.Column {
	return schema.Column{Name: name, Type: value.KindInt}
}

func strCol(name string) schema.Column {
	return schema.Column{Name: name, Type: value.KindString}
}

func pk(col string) []schema.Key {
	return []schema.Key{{Columns: []string{col}, Primary: true}}
}

// shuffledMod returns n values where value v in [0, mod) appears exactly
// n/mod times (n must be a multiple of mod), in seeded order.
func shuffledMod(rng *rand.Rand, n, mod int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % mod
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// starDataset builds Fact(FID pk, DimID, GroupID, V) with facts rows and
// Dim(DimID pk, Label, Region). Every Fact row matches exactly one Dim row.
func starDataset(seed int64, facts int) *dataset {
	rng := rand.New(rand.NewSource(seed))
	dim := &table{def: &schema.Table{
		Name:    "Dim",
		Columns: []schema.Column{intCol("DimID"), strCol("Label"), intCol("Region")},
		Keys:    pk("DimID"),
	}}
	regions := shuffledMod(rng, starDims, starRegions)
	for i := 0; i < starDims; i++ {
		dim.rows = append(dim.rows, value.Row{
			value.NewInt(int64(i + 1)),
			value.NewString(fmt.Sprintf("dim-%04d-%03d", i+1, rng.Intn(1000))),
			value.NewInt(int64(regions[i] + 1)),
		})
	}
	fact := &table{def: &schema.Table{
		Name:    "Fact",
		Columns: []schema.Column{intCol("FID"), intCol("DimID"), intCol("GroupID"), intCol("V")},
		Keys:    pk("FID"),
	}}
	dims := shuffledMod(rng, facts, starDims)
	groups := shuffledMod(rng, facts, facts/starGroupRows)
	vs := shuffledMod(rng, facts, starVRange)
	fact.rows = make([]value.Row, facts)
	for i := range fact.rows {
		fact.rows[i] = value.Row{
			value.NewInt(int64(i + 1)),
			value.NewInt(int64(dims[i] + 1)),
			value.NewInt(int64(groups[i] + 1)),
			value.NewInt(int64(vs[i])),
		}
	}
	return &dataset{tables: []*table{dim, fact}}
}

// hrDataset builds Dept, Emp and the writable kv table whose rows keep the
// invariant val = 2*grp, so a reader can check SUM(val) = 2*SUM(grp) on
// any snapshot no matter how many writes it has seen.
func hrDataset(seed int64) *dataset {
	rng := rand.New(rand.NewSource(seed))
	dept := &table{def: &schema.Table{
		Name:    "Dept",
		Columns: []schema.Column{intCol("DeptID"), strCol("Name")},
		Keys:    pk("DeptID"),
	}}
	for i := 1; i <= hrDepts; i++ {
		dept.rows = append(dept.rows, value.Row{
			value.NewInt(int64(i)),
			value.NewString(fmt.Sprintf("dept-%02d-%03d", i, rng.Intn(1000))),
		})
	}
	emp := &table{def: &schema.Table{
		Name:    "Emp",
		Columns: []schema.Column{intCol("EmpID"), intCol("DeptID"), intCol("Salary")},
		Keys:    pk("EmpID"),
	}}
	depts := shuffledMod(rng, hrEmps, hrDepts)
	for i := 1; i <= hrEmps; i++ {
		emp.rows = append(emp.rows, value.Row{
			value.NewInt(int64(i)),
			value.NewInt(int64(depts[i-1] + 1)),
			value.NewInt(int64(1000 + rng.Intn(500))),
		})
	}
	kv := &table{def: &schema.Table{
		Name:    "kv",
		Columns: []schema.Column{intCol("id"), intCol("grp"), intCol("val")},
		Keys:    pk("id"),
	}}
	for i := 1; i <= hrKVSeed; i++ {
		kv.rows = append(kv.rows, kvRow(i, rng.Intn(kvGroups)))
	}
	return &dataset{tables: []*table{dept, emp, kv}}
}

func kvRow(id, grp int) value.Row {
	return value.Row{value.NewInt(int64(id)), value.NewInt(int64(grp)), value.NewInt(int64(2 * grp))}
}

// createSQL renders the table's CREATE TABLE statement.
func (t *table) createSQL() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE TABLE %s (", t.def.Name)
	key := t.def.PrimaryKey()
	for i, c := range t.def.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		if c.Type == value.KindString {
			b.WriteString(" CHARACTER(30)")
		} else {
			b.WriteString(" INTEGER")
		}
		if key != nil && len(key.Columns) == 1 && key.Columns[0] == c.Name {
			b.WriteString(" PRIMARY KEY")
		}
	}
	b.WriteString(")")
	return b.String()
}

// csv renders the rows in declaration order, one record per line.
func (t *table) csv() string {
	var b strings.Builder
	for _, r := range t.rows {
		for i, v := range r {
			if i > 0 {
				b.WriteByte(',')
			}
			if v.Kind() == value.KindString {
				b.WriteString(v.Str())
			} else {
				b.WriteString(strconv.FormatInt(v.Int(), 10))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// checksum fingerprints the dataset's rows in generation order; equal
// seeds must give equal checksums and different seeds different ones.
func (d *dataset) checksum() uint64 {
	h := fnv.New64a()
	for _, t := range d.tables {
		h.Write([]byte(t.def.Name))
		h.Write([]byte(t.csv()))
	}
	return h.Sum64()
}
