package storage

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/value"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	return NewStore(schema.NewCatalog())
}

func deptTable() *schema.Table {
	return &schema.Table{
		Name: "Department",
		Columns: []schema.Column{
			{Name: "DeptID", Type: value.KindInt},
			{Name: "Name", Type: value.KindString},
		},
		Keys: []schema.Key{{Columns: []string{"DeptID"}, Primary: true}},
	}
}

func empTable() *schema.Table {
	return &schema.Table{
		Name: "Employee",
		Columns: []schema.Column{
			{Name: "EmpID", Type: value.KindInt},
			{Name: "LastName", Type: value.KindString, NotNull: true},
			{Name: "DeptID", Type: value.KindInt},
		},
		Keys:        []schema.Key{{Columns: []string{"EmpID"}, Primary: true}},
		ForeignKeys: []schema.ForeignKey{{Columns: []string{"DeptID"}, RefTable: "Department"}},
	}
}

func TestInsertAndScan(t *testing.T) {
	s := newStore(t)
	if err := s.CreateTable(deptTable()); err != nil {
		t.Fatal(err)
	}
	rows := []value.Row{
		{value.NewInt(1), value.NewString("Sales")},
		{value.NewInt(2), value.NewString("Eng")},
	}
	for _, r := range rows {
		if err := s.Insert("Department", r); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := s.Table("Department")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	if got := tab.Row(1); !value.NullEqRows(got, rows[1]) {
		t.Errorf("Row(1) = %v, want %v", got, rows[1])
	}
}

func TestInsertEnforcesArityAndTypes(t *testing.T) {
	s := newStore(t)
	if err := s.CreateTable(deptTable()); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("Department", value.Row{value.NewInt(1)}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := s.Insert("Department", value.Row{value.NewString("x"), value.NewString("y")}); err == nil {
		t.Error("string into INTEGER column accepted")
	}
	// Numeric widening/narrowing.
	if err := s.Insert("Department", value.Row{value.NewFloat(3.0), value.NewString("ok")}); err != nil {
		t.Errorf("integral float into INTEGER column rejected: %v", err)
	}
	if err := s.Insert("Department", value.Row{value.NewFloat(3.5), value.NewString("x")}); err == nil {
		t.Error("non-integral float into INTEGER column accepted")
	}
	tab, _ := s.Table("Department")
	if tab.Row(0)[0].Kind() != value.KindInt {
		t.Error("stored value was not narrowed to INTEGER")
	}
}

func TestPrimaryKeyEnforcement(t *testing.T) {
	s := newStore(t)
	if err := s.CreateTable(deptTable()); err != nil {
		t.Fatal(err)
	}
	must(t, s.Insert("Department", value.Row{value.NewInt(1), value.NewString("a")}))
	if err := s.Insert("Department", value.Row{value.NewInt(1), value.NewString("b")}); err == nil {
		t.Error("duplicate primary key accepted")
	}
	if err := s.Insert("Department", value.Row{value.Null, value.NewString("b")}); err == nil {
		t.Error("NULL primary key accepted")
	}
}

// TestCandidateKeyNullSemantics: SQL2's UNIQUE predicate uses "NULL not
// equal to NULL" — multiple rows with NULL in a candidate key coexist,
// while duplicate non-null values are rejected.
func TestCandidateKeyNullSemantics(t *testing.T) {
	s := newStore(t)
	tab := &schema.Table{
		Name: "T",
		Columns: []schema.Column{
			{Name: "id", Type: value.KindInt},
			{Name: "sid", Type: value.KindInt},
		},
		Keys: []schema.Key{
			{Columns: []string{"id"}, Primary: true},
			{Columns: []string{"sid"}},
		},
	}
	if err := s.CreateTable(tab); err != nil {
		t.Fatal(err)
	}
	must(t, s.Insert("T", value.Row{value.NewInt(1), value.Null}))
	must(t, s.Insert("T", value.Row{value.NewInt(2), value.Null}))
	must(t, s.Insert("T", value.Row{value.NewInt(3), value.NewInt(7)}))
	if err := s.Insert("T", value.Row{value.NewInt(4), value.NewInt(7)}); err == nil {
		t.Error("duplicate non-null candidate key accepted")
	}
}

func TestNotNullEnforcement(t *testing.T) {
	s := newStore(t)
	if err := s.CreateTable(empTable()); err == nil {
		t.Error("CreateTable must fail while Department is missing (FK target)")
	}
	must(t, s.CreateTable(deptTable()))
	must(t, s.CreateTable(empTable()))
	err := s.Insert("Employee", value.Row{value.NewInt(1), value.Null, value.Null})
	if err == nil || !strings.Contains(err.Error(), "NOT NULL") {
		t.Errorf("NOT NULL violation not reported: %v", err)
	}
}

// TestCheckConstraintUnknownPasses: per SQL2 a CHECK constraint rejects a
// row only when it evaluates to false; unknown (NULL input) passes.
func TestCheckConstraintUnknownPasses(t *testing.T) {
	s := newStore(t)
	tab := &schema.Table{
		Name: "T",
		Columns: []schema.Column{
			{Name: "a", Type: value.KindInt,
				Check: expr.NewBinary(expr.OpGt, expr.Column("", "a"), expr.IntLit(0))},
		},
	}
	must(t, s.CreateTable(tab))
	must(t, s.Insert("T", value.Row{value.NewInt(5)}))
	must(t, s.Insert("T", value.Row{value.Null})) // unknown → passes
	if err := s.Insert("T", value.Row{value.NewInt(-1)}); err == nil {
		t.Error("check violation accepted")
	}
}

func TestTableLevelCheck(t *testing.T) {
	s := newStore(t)
	tab := &schema.Table{
		Name: "T",
		Columns: []schema.Column{
			{Name: "lo", Type: value.KindInt},
			{Name: "hi", Type: value.KindInt},
		},
		Checks: []expr.Expr{expr.NewBinary(expr.OpLe, expr.Column("", "lo"), expr.Column("", "hi"))},
	}
	must(t, s.CreateTable(tab))
	must(t, s.Insert("T", value.Row{value.NewInt(1), value.NewInt(2)}))
	if err := s.Insert("T", value.Row{value.NewInt(3), value.NewInt(2)}); err == nil {
		t.Error("table-level check violation accepted")
	}
}

func TestForeignKeyEnforcement(t *testing.T) {
	s := newStore(t)
	must(t, s.CreateTable(deptTable()))
	must(t, s.CreateTable(empTable()))
	must(t, s.Insert("Department", value.Row{value.NewInt(10), value.NewString("Sales")}))
	// Matching FK.
	must(t, s.Insert("Employee", value.Row{value.NewInt(1), value.NewString("Yan"), value.NewInt(10)}))
	// NULL FK passes (MATCH SIMPLE).
	must(t, s.Insert("Employee", value.Row{value.NewInt(2), value.NewString("Larson"), value.Null}))
	// Dangling FK rejected.
	if err := s.Insert("Employee", value.Row{value.NewInt(3), value.NewString("X"), value.NewInt(99)}); err == nil {
		t.Error("dangling foreign key accepted")
	}
}

func TestDuplicateRowsAreAllowed(t *testing.T) {
	// Tables are multisets: identical rows coexist absent key constraints.
	s := newStore(t)
	tab := &schema.Table{Name: "T", Columns: []schema.Column{{Name: "a", Type: value.KindInt}}}
	must(t, s.CreateTable(tab))
	must(t, s.Insert("T", value.Row{value.NewInt(1)}))
	must(t, s.Insert("T", value.Row{value.NewInt(1)}))
	got, _ := s.Table("T")
	if got.Len() != 2 {
		t.Errorf("multiset semantics broken: Len = %d, want 2", got.Len())
	}
}

func TestInsertClonesInput(t *testing.T) {
	s := newStore(t)
	tab := &schema.Table{Name: "T", Columns: []schema.Column{{Name: "a", Type: value.KindInt}}}
	must(t, s.CreateTable(tab))
	row := value.Row{value.NewInt(1)}
	must(t, s.Insert("T", row))
	row[0] = value.NewInt(99)
	got, _ := s.Table("T")
	if got.Row(0)[0].Int() != 1 {
		t.Error("Insert must clone the caller's row")
	}
}

func TestUnknownTableErrors(t *testing.T) {
	s := newStore(t)
	if _, err := s.Table("NoSuch"); err == nil {
		t.Error("unknown table lookup must error")
	}
	if err := s.Insert("NoSuch", value.Row{}); err == nil {
		t.Error("insert into unknown table must error")
	}
}

func TestMustInsertPanics(t *testing.T) {
	s := newStore(t)
	defer func() {
		if recover() == nil {
			t.Error("MustInsert must panic on error")
		}
	}()
	s.MustInsert("NoSuch", value.Row{})
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestPropInsertMaintainsKeyInvariants: after any random insert sequence
// (some accepted, some rejected), the stored data satisfies every declared
// constraint — primary-key uniqueness and non-nullness, candidate-key
// uniqueness among non-null values, and foreign-key referential integrity.
func TestPropInsertMaintainsKeyInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		s := newStore(t)
		must(t, s.CreateTable(&schema.Table{
			Name: "P",
			Columns: []schema.Column{
				{Name: "id", Type: value.KindInt},
				{Name: "alt", Type: value.KindInt},
			},
			Keys: []schema.Key{
				{Columns: []string{"id"}, Primary: true},
				{Columns: []string{"alt"}},
			},
		}))
		must(t, s.CreateTable(&schema.Table{
			Name: "C",
			Columns: []schema.Column{
				{Name: "cid", Type: value.KindInt},
				{Name: "ref", Type: value.KindInt},
			},
			Keys:        []schema.Key{{Columns: []string{"cid"}, Primary: true}},
			ForeignKeys: []schema.ForeignKey{{Columns: []string{"ref"}, RefTable: "P"}},
		}))
		randVal := func() value.Value {
			if r.Intn(4) == 0 {
				return value.Null
			}
			return value.NewInt(int64(r.Intn(5)))
		}
		for op := 0; op < 30; op++ {
			if r.Intn(2) == 0 {
				_ = s.Insert("P", value.Row{randVal(), randVal()})
			} else {
				_ = s.Insert("C", value.Row{randVal(), randVal()})
			}
		}
		// Verify the invariants directly against the stored rows.
		p, _ := s.Table("P")
		seenID := map[int64]bool{}
		seenAlt := map[int64]bool{}
		for _, row := range p.Rows() {
			if row[0].IsNull() {
				t.Fatal("NULL primary key stored")
			}
			if seenID[row[0].Int()] {
				t.Fatalf("duplicate primary key %s", row[0])
			}
			seenID[row[0].Int()] = true
			if !row[1].IsNull() {
				if seenAlt[row[1].Int()] {
					t.Fatalf("duplicate candidate key %s", row[1])
				}
				seenAlt[row[1].Int()] = true
			}
		}
		c, _ := s.Table("C")
		for _, row := range c.Rows() {
			if !row[1].IsNull() && !seenID[row[1].Int()] {
				t.Fatalf("dangling foreign key %s", row[1])
			}
		}
	}
}

// TestRefusedInsertWritesNothing: a row is checked in the table's scratch row
// and copied into its slab only once accepted, so an INSERT refused by CHECK,
// NOT NULL, PRIMARY KEY or FOREIGN KEY leaves Len — and every stored row — as
// it was, and the next accepted row reads back exactly, coerced.
func TestRefusedInsertWritesNothing(t *testing.T) {
	s := newStore(t)
	must(t, s.CreateTable(deptTable()))
	must(t, s.CreateTable(&schema.Table{
		Name: "E",
		Columns: []schema.Column{
			{Name: "id", Type: value.KindInt},
			{Name: "name", Type: value.KindString, NotNull: true},
			{Name: "dept", Type: value.KindInt},
			{Name: "pay", Type: value.KindFloat,
				Check: expr.NewBinary(expr.OpGt, expr.Column("", "pay"), expr.IntLit(0))},
		},
		Keys:        []schema.Key{{Columns: []string{"id"}, Primary: true}},
		ForeignKeys: []schema.ForeignKey{{Columns: []string{"dept"}, RefTable: "Department"}},
	}))
	must(t, s.Insert("Department", value.Row{value.NewInt(10), value.NewString("Sales")}))
	first := value.Row{value.NewInt(1), value.NewString("a"), value.NewInt(10), value.NewFloat(5)}
	must(t, s.Insert("E", first))
	for _, tc := range []struct {
		name string
		row  value.Row
	}{
		{"CHECK", value.Row{value.NewInt(2), value.NewString("b"), value.NewInt(10), value.NewFloat(-1)}},
		{"NOT NULL", value.Row{value.NewInt(2), value.Null, value.NewInt(10), value.NewFloat(1)}},
		{"PRIMARY KEY", value.Row{value.NewInt(1), value.NewString("b"), value.NewInt(10), value.NewFloat(1)}},
		{"FOREIGN KEY", value.Row{value.NewInt(2), value.NewString("b"), value.NewInt(99), value.NewFloat(1)}},
	} {
		if err := s.Insert("E", tc.row); err == nil {
			t.Fatalf("%s violation accepted", tc.name)
		}
		tab, _ := s.Table("E")
		if tab.Len() != 1 || !value.NullEqRows(tab.Row(0), first) {
			t.Fatalf("after a refused %s insert the table holds %v", tc.name, tab.Rows())
		}
	}
	// An INTEGER into the DOUBLE column is widened; NULL passes the FK.
	must(t, s.Insert("E", value.Row{value.NewInt(2), value.NewString("b"), value.Null, value.NewInt(7)}))
	tab, _ := s.Table("E")
	want := value.Row{value.NewInt(2), value.NewString("b"), value.Null, value.NewFloat(7)}
	if tab.Len() != 2 || !value.NullEqRows(tab.Row(0), first) || !value.NullEqRows(tab.Row(1), want) || tab.Row(1)[3].Kind() != value.KindFloat {
		t.Fatalf("the table holds %v, want [%v %v]", tab.Rows(), first, want)
	}
}

// TestKeyIndexCases: the key indexes hold GroupKey bytes of a key's columns
// in the key's order. A composite key refuses only a repeat of every column;
// a NULL in a UNIQUE key exempts the row; a foreign key naming a composite key
// in another column order finds a referenced row (hit), refuses a missing one
// (miss) and passes a NULL (MATCH SIMPLE).
func TestKeyIndexCases(t *testing.T) {
	s := newStore(t)
	must(t, s.CreateTable(&schema.Table{
		Name: "P",
		Columns: []schema.Column{
			{Name: "a", Type: value.KindInt},
			{Name: "b", Type: value.KindString},
			{Name: "c", Type: value.KindInt},
		},
		Keys: []schema.Key{
			{Columns: []string{"a", "b"}, Primary: true},
			{Columns: []string{"c"}},
		},
	}))
	must(t, s.CreateTable(&schema.Table{
		Name: "C",
		Columns: []schema.Column{
			{Name: "id", Type: value.KindInt},
			{Name: "pb", Type: value.KindString},
			{Name: "pa", Type: value.KindInt},
		},
		Keys:        []schema.Key{{Columns: []string{"id"}, Primary: true}},
		ForeignKeys: []schema.ForeignKey{{Columns: []string{"pb", "pa"}, RefTable: "P", RefColumns: []string{"b", "a"}}},
	}))
	p := func(a int64, b string, c value.Value) value.Row {
		return value.Row{value.NewInt(a), value.NewString(b), c}
	}
	must(t, s.Insert("P", p(1, "x", value.Null)))
	must(t, s.Insert("P", p(1, "y", value.Null))) // the key's first column repeats; NULL c twice
	must(t, s.Insert("P", p(2, "x", value.NewInt(5))))
	if err := s.Insert("P", p(1, "x", value.NewInt(6))); err == nil {
		t.Error("a repeat of the composite primary key accepted")
	}
	if err := s.Insert("P", p(3, "z", value.NewInt(5))); err == nil {
		t.Error("a repeat of the UNIQUE key accepted")
	}
	c := func(id int64, pb, pa value.Value) value.Row { return value.Row{value.NewInt(id), pb, pa} }
	must(t, s.Insert("C", c(1, value.NewString("y"), value.NewInt(1))))
	if err := s.Insert("C", c(2, value.NewString("x"), value.NewInt(3))); err == nil || !strings.Contains(err.Error(), "no match") {
		t.Errorf("a dangling composite foreign key: err = %v, want no match", err)
	}
	must(t, s.Insert("C", c(3, value.Null, value.NewInt(9))))
	if tab, _ := s.Table("P"); tab.Len() != 3 {
		t.Errorf("P holds %d rows, want 3", tab.Len())
	}
	if tab, _ := s.Table("C"); tab.Len() != 2 {
		t.Errorf("C holds %d rows, want 2", tab.Len())
	}
}

// BenchmarkInsert is the layer benchmark of the store's write path: 48 000
// four-column rows into a fresh table with a primary key. Run with -benchmem:
// allocs/op over 48 000 is what a stored row costs — its version of the table,
// and its share of a slab page, a key-index chunk and the header slice.
func BenchmarkInsert(b *testing.B) {
	const n = 48000
	def := &schema.Table{
		Name: "Fact",
		Columns: []schema.Column{
			{Name: "FID", Type: value.KindInt},
			{Name: "DimID", Type: value.KindInt},
			{Name: "GroupID", Type: value.KindInt},
			{Name: "V", Type: value.KindInt},
		},
		Keys: []schema.Key{{Columns: []string{"FID"}, Primary: true}},
	}
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 1000)), value.NewInt(int64(i % 37)), value.NewInt(int64(i % 100))}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewStore(schema.NewCatalog())
		if err := s.CreateTable(def); err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			if err := s.Insert("Fact", row); err != nil {
				b.Fatal(err)
			}
		}
	}
}
