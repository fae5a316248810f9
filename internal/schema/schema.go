// Package schema implements the catalog: table, domain and view definitions
// together with the five classes of SQL2 semantic integrity constraints the
// paper's Section 6.1 enumerates — column constraints (NOT NULL, CHECK),
// domain constraints, key constraints (PRIMARY KEY, UNIQUE), referential
// integrity constraints (FOREIGN KEY) and assertion-style table checks.
//
// These constraints are the raw material of the paper's Theorem 3 and
// Algorithm TestFD: because every valid database instance satisfies them,
// the optimizer may assume them to hold in any join result when deciding
// whether the group-by can be pushed below the join.
package schema

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/value"
)

// Column describes one column of a table.
type Column struct {
	Name    string
	Type    value.Kind
	NotNull bool
	// Domain names the domain the column was declared over, if any; the
	// domain's constraint applies to the column (the paper: "domain
	// constraints are equivalent to column constraints on the
	// appropriate columns").
	Domain string
	// Check is the column CHECK constraint; inside it the column is
	// referenced by its unqualified name. Nil when absent.
	Check expr.Expr
}

// Key is a PRIMARY KEY or UNIQUE (candidate key) constraint. Per SQL2, a
// primary key admits no NULLs; a candidate key may contain NULLs and is
// enforced under the UNIQUE predicate's "NULL not equal to NULL" semantics.
type Key struct {
	Columns []string
	Primary bool
}

// String renders "PRIMARY KEY (a, b)" or "UNIQUE (a, b)".
func (k Key) String() string {
	kind := "UNIQUE"
	if k.Primary {
		kind = "PRIMARY KEY"
	}
	return kind + " (" + strings.Join(k.Columns, ", ") + ")"
}

// ForeignKey is a referential integrity constraint: the column list must be
// all-NULL-or-match a key of the referenced table.
type ForeignKey struct {
	Columns    []string
	RefTable   string
	RefColumns []string // empty means the referenced table's primary key
}

// Table is the definition of a base table.
type Table struct {
	Name        string
	Columns     []Column
	Keys        []Key
	ForeignKeys []ForeignKey
	// Checks are table-level CHECK constraints (and stand in for the
	// paper's assertion constraints, scoped to one table); columns are
	// referenced unqualified.
	Checks []expr.Expr
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i := range t.Columns {
		if t.Columns[i].Name == name {
			return i
		}
	}
	return -1
}

// Column returns the named column definition, or nil.
func (t *Table) Column(name string) *Column {
	if i := t.ColumnIndex(name); i >= 0 {
		return &t.Columns[i]
	}
	return nil
}

// ColumnNames returns the column names in declaration order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i := range t.Columns {
		out[i] = t.Columns[i].Name
	}
	return out
}

// PrimaryKey returns the table's primary key, or nil.
func (t *Table) PrimaryKey() *Key {
	for i := range t.Keys {
		if t.Keys[i].Primary {
			return &t.Keys[i]
		}
	}
	return nil
}

// Width returns the number of columns.
func (t *Table) Width() int { return len(t.Columns) }

// Validate checks the table definition for internal consistency: no
// duplicate column names, key and FK columns must exist, one primary key at
// most, and primary-key columns are implicitly NOT NULL (Validate marks
// them so).
func (t *Table) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("schema: table with empty name")
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("schema: table %s has no columns", t.Name)
	}
	seen := make(map[string]bool, len(t.Columns))
	for _, c := range t.Columns {
		if c.Name == "" {
			return fmt.Errorf("schema: table %s has a column with empty name", t.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("schema: table %s: duplicate column %s", t.Name, c.Name)
		}
		seen[c.Name] = true
	}
	primaries := 0
	for _, k := range t.Keys {
		if len(k.Columns) == 0 {
			return fmt.Errorf("schema: table %s: key with no columns", t.Name)
		}
		if k.Primary {
			primaries++
		}
		kseen := make(map[string]bool, len(k.Columns))
		for _, col := range k.Columns {
			if !seen[col] {
				return fmt.Errorf("schema: table %s: key column %s does not exist", t.Name, col)
			}
			if kseen[col] {
				return fmt.Errorf("schema: table %s: key repeats column %s", t.Name, col)
			}
			kseen[col] = true
			if k.Primary {
				// SQL2: no column of a primary key can be NULL.
				t.Columns[t.ColumnIndex(col)].NotNull = true
			}
		}
	}
	if primaries > 1 {
		return fmt.Errorf("schema: table %s: multiple primary keys", t.Name)
	}
	for _, fk := range t.ForeignKeys {
		if len(fk.Columns) == 0 {
			return fmt.Errorf("schema: table %s: foreign key with no columns", t.Name)
		}
		for _, col := range fk.Columns {
			if !seen[col] {
				return fmt.Errorf("schema: table %s: foreign key column %s does not exist", t.Name, col)
			}
		}
		if len(fk.RefColumns) != 0 && len(fk.RefColumns) != len(fk.Columns) {
			return fmt.Errorf("schema: table %s: foreign key to %s has mismatched column counts",
				t.Name, fk.RefTable)
		}
	}
	return nil
}

// Domain is a CREATE DOMAIN definition: a named type with an optional CHECK
// constraint. Inside the constraint the value under test is referenced by
// the pseudo-column VALUE (column name "VALUE", empty table qualifier).
type Domain struct {
	Name    string
	Type    value.Kind
	NotNull bool
	Check   expr.Expr
}

// View is a named query. The definition is held as an opaque handle set by
// the engine layer (the catalog cannot depend on the SQL AST package); Text
// preserves the original definition for display.
type View struct {
	Name string
	Text string
	Def  any
	// Columns optionally renames the view's output columns.
	Columns []string
}

// Catalog is the collection of all schema objects. It is not safe for
// concurrent mutation; the engine serializes DDL. Its maps are copy-on-write:
// an Add publishes a new map and never writes into one a snapshot may share.
type Catalog struct {
	tables  map[string]*Table
	domains map[string]*Domain
	views   map[string]*View
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables:  make(map[string]*Table),
		domains: make(map[string]*Domain),
		views:   make(map[string]*View),
	}
}

// AddTable validates and registers a table. Domain references are resolved
// here: a column declared over a domain inherits the domain's type, NOT
// NULL flag and CHECK constraint.
func (c *Catalog) AddTable(t *Table) error {
	if _, exists := c.tables[t.Name]; exists {
		return fmt.Errorf("schema: table %s already exists", t.Name)
	}
	if _, exists := c.views[t.Name]; exists {
		return fmt.Errorf("schema: %s already exists as a view", t.Name)
	}
	for i := range t.Columns {
		col := &t.Columns[i]
		if col.Domain == "" {
			continue
		}
		d, ok := c.domains[col.Domain]
		if !ok {
			return fmt.Errorf("schema: table %s column %s: unknown domain %s", t.Name, col.Name, col.Domain)
		}
		col.Type = d.Type
		if d.NotNull {
			col.NotNull = true
		}
		if d.Check != nil {
			// Rewrite the domain's VALUE pseudo-column to this column.
			domainCheck := expr.SubstituteColumns(d.Check, map[expr.ColumnID]expr.ColumnID{
				{Table: "", Name: "VALUE"}: {Table: "", Name: col.Name},
			})
			col.Check = expr.And(col.Check, domainCheck)
		}
	}
	if err := t.Validate(); err != nil {
		return err
	}
	for _, fk := range t.ForeignKeys {
		if err := c.checkForeignKeyTarget(t, fk); err != nil {
			return err
		}
	}
	c.tables = maps.Clone(c.tables)
	c.tables[t.Name] = t
	return nil
}

// checkForeignKeyTarget verifies that a foreign key references an existing
// table's primary or candidate key. Self-references are allowed.
func (c *Catalog) checkForeignKeyTarget(t *Table, fk ForeignKey) error {
	ref := c.tables[fk.RefTable]
	if fk.RefTable == t.Name {
		ref = t
	}
	if ref == nil {
		return fmt.Errorf("schema: table %s: foreign key references unknown table %s", t.Name, fk.RefTable)
	}
	target := fk.RefColumns
	if len(target) == 0 {
		pk := ref.PrimaryKey()
		if pk == nil {
			return fmt.Errorf("schema: table %s: foreign key references %s, which has no primary key", t.Name, fk.RefTable)
		}
		target = pk.Columns
	}
	if len(target) != len(fk.Columns) {
		return fmt.Errorf("schema: table %s: foreign key to %s has mismatched column counts", t.Name, fk.RefTable)
	}
	for _, k := range ref.Keys {
		if equalStringSets(k.Columns, target) {
			return nil
		}
	}
	return fmt.Errorf("schema: table %s: foreign key target (%s) is not a key of %s",
		t.Name, strings.Join(target, ", "), fk.RefTable)
}

func equalStringSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]bool, len(a))
	for _, s := range a {
		set[s] = true
	}
	for _, s := range b {
		if !set[s] {
			return false
		}
	}
	return true
}

// Snapshot returns a point-in-time copy of the catalog. It shares the maps,
// which no later DDL on the live catalog (CREATE TABLE/DOMAIN/VIEW) writes
// into, so that DDL is invisible to the snapshot; the definitions themselves
// are shared too — they are immutable once registered (Validate mutates a
// Table only before AddTable publishes it).
func (c *Catalog) Snapshot() *Catalog {
	snap := *c
	return &snap
}

// Table returns the named table, or an error.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("schema: unknown table %s", name)
	}
	return t, nil
}

// HasTable reports whether a base table with the name exists.
func (c *Catalog) HasTable(name string) bool {
	_, ok := c.tables[name]
	return ok
}

// TableNames returns all base-table names, sorted.
func (c *Catalog) TableNames() []string {
	out := make([]string, 0, len(c.tables))
	for name := range c.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AddDomain registers a domain definition.
func (c *Catalog) AddDomain(d *Domain) error {
	if d.Name == "" {
		return fmt.Errorf("schema: domain with empty name")
	}
	if _, exists := c.domains[d.Name]; exists {
		return fmt.Errorf("schema: domain %s already exists", d.Name)
	}
	c.domains = maps.Clone(c.domains)
	c.domains[d.Name] = d
	return nil
}

// Domain returns the named domain, or an error.
func (c *Catalog) Domain(name string) (*Domain, error) {
	d, ok := c.domains[name]
	if !ok {
		return nil, fmt.Errorf("schema: unknown domain %s", name)
	}
	return d, nil
}

// AddView registers a view definition.
func (c *Catalog) AddView(v *View) error {
	if v.Name == "" {
		return fmt.Errorf("schema: view with empty name")
	}
	if _, exists := c.views[v.Name]; exists {
		return fmt.Errorf("schema: view %s already exists", v.Name)
	}
	if _, exists := c.tables[v.Name]; exists {
		return fmt.Errorf("schema: %s already exists as a table", v.Name)
	}
	c.views = maps.Clone(c.views)
	c.views[v.Name] = v
	return nil
}

// View returns the named view, or nil when absent.
func (c *Catalog) View(name string) *View {
	return c.views[name]
}

// ViewNames returns all view names, sorted.
func (c *Catalog) ViewNames() []string {
	out := make([]string, 0, len(c.views))
	for name := range c.views {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
