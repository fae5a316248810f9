// Package storage implements the in-memory table store. Tables are
// multisets of rows (SQL2 tables, not relations — duplicates are
// meaningful), each row carrying an implicit RowID per the paper's
// Section 4.3, and every insert enforces the catalog's semantic integrity
// constraints. That enforcement is what licenses the optimizer's use of
// those constraints in Theorem 3 / TestFD: any instance reachable through
// this package is a valid instance.
package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/paged"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/vec"
)

// Table is one version of a base table: its rows, and the writer state every
// version of the table shares.
type Table struct {
	Def  *schema.Table
	rows []value.Row
	w    *writer

	// colMu guards the lazily built columnar projection; concurrent
	// queries may race to build it for the same row snapshot.
	colMu sync.Mutex
	// colBatches is the cached columnar form of rows[:colRows].
	colBatches []*vec.Batch
	colRows    int
}

// writer is what only an insert touches, shared by every version of one
// table: the slab stored rows are cut from, the uniqueness indexes that
// enforce the table's keys, the bound constraints, and the scratch a row is
// checked in before it is stored. Writers are serialized on the live store
// and snapshots reject writes, so none of it is locked. The slab and the rows'
// header slice are append-only: a version's readers never look past its own
// rows, which no later insert writes.
type writer struct {
	slab value.Slab
	// keys[i] holds the GroupKey bytes of key i's columns of every stored row
	// (a candidate key's NULL-holding rows are exempt and absent).
	keys []paged.Dict
	// keyCols[i] are the column positions of key i; fkCols[i] those of
	// foreign key i.
	keyCols, fkCols [][]int
	// checks are the table's CHECK constraints (column-level and
	// table-level), bound to row positions at table-creation time.
	checks []expr.Expr
	row    value.Row // the row under check, coerced
	key    []byte    // the key under check
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Rows returns the table's rows. The slice and the rows are shared with the
// table: callers must treat them as read-only.
func (t *Table) Rows() []value.Row { return t.rows }

// Row returns the row with the given RowID (its insertion ordinal).
func (t *Table) Row(id int) value.Row { return t.rows[id] }

// Columnar returns the table's rows as columnar batches of vec.BatchSize
// rows, built on first use and cached until the table grows. The batches
// are shared and read-only, exactly like Rows(); the vectorized scan
// iterates them with no per-query conversion work. Stored columns are
// kind-uniform by construction (Insert coerces to the declared type), so
// every vector gets its typed representation.
func (t *Table) Columnar() []*vec.Batch {
	t.colMu.Lock()
	defer t.colMu.Unlock()
	if t.colRows != len(t.rows) {
		t.colBatches = vec.Columnarize(t.rows, len(t.Def.Columns), vec.BatchSize)
		t.colRows = len(t.rows)
	}
	return t.colBatches
}

// Store is the collection of all table instances, backed by a catalog.
//
// The store is versioned: every table write (CreateTable, Insert) bumps a
// monotonic epoch, and Snapshot returns a frozen point-in-time view that
// later writes can never change. Writes are copy-on-write at table
// granularity — Insert publishes a fresh *Table value instead of mutating
// the published one — so a snapshot taken mid-stream keeps serving the
// exact multiset it captured. This is the snapshot-isolation substrate the
// server's queries-vs-DML concurrency is built on, and the epoch is the
// engine's cluster-cache clock.
type Store struct {
	catalog *schema.Catalog
	tables  map[string]*Table

	// mu guards tables and catalog mutation on the live store. Snapshots
	// are immutable after construction, so their reads need no lock — but
	// taking the read lock there too keeps the invariant trivially safe.
	mu sync.RWMutex
	// epoch counts table writes; a snapshot records the epoch it captured.
	epoch atomic.Uint64
	// frozen marks a snapshot: every write is rejected.
	frozen bool
}

// NewStore returns an empty store over the given catalog. Tables already
// present in the catalog are materialized empty.
func NewStore(catalog *schema.Catalog) *Store {
	s := &Store{catalog: catalog, tables: make(map[string]*Table)}
	for _, name := range catalog.TableNames() {
		def, _ := catalog.Table(name)
		t, err := newTable(def)
		if err == nil {
			s.tables[name] = t
		}
	}
	return s
}

// Catalog returns the store's catalog.
func (s *Store) Catalog() *schema.Catalog { return s.catalog }

// Epoch returns the store's table-write counter. Any INSERT or CREATE
// TABLE advances it; two equal epochs from the same store are a guarantee
// of identical tables. Domains and views go straight to the catalog and
// leave it alone: a partitioning of the tables is all it dates.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// Frozen reports whether the store is a read-only snapshot.
func (s *Store) Frozen() bool { return s.frozen }

// Snapshot returns a frozen point-in-time view of the store: the catalog
// and the tables map are copied, the *Table versions are shared. Because
// writers publish new *Table values instead of mutating published ones,
// the snapshot's tables never change afterwards; writes against the
// snapshot itself are rejected. The snapshot records the epoch it
// captured, which Epoch reports unchanged forever.
func (s *Store) Snapshot() *Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := &Store{
		catalog: s.catalog.Snapshot(),
		tables:  make(map[string]*Table, len(s.tables)),
		frozen:  true,
	}
	for name, t := range s.tables {
		snap.tables[name] = t
	}
	snap.epoch.Store(s.epoch.Load())
	return snap
}

// CreateTable registers the definition in the catalog and materializes an
// empty table.
func (s *Store) CreateTable(def *schema.Table) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		return fmt.Errorf("storage: store snapshot is read-only")
	}
	if err := s.catalog.AddTable(def); err != nil {
		return err
	}
	t, err := newTable(def)
	if err != nil {
		return err
	}
	s.tables[def.Name] = t
	s.epoch.Add(1)
	return nil
}

func newTable(def *schema.Table) (*Table, error) {
	w := &writer{keys: make([]paged.Dict, len(def.Keys)), row: make(value.Row, len(def.Columns))}
	t := &Table{Def: def, w: w}
	for _, k := range def.Keys {
		w.keyCols = append(w.keyCols, columnPositions(def, k.Columns))
	}
	for _, fk := range def.ForeignKeys {
		w.fkCols = append(w.fkCols, columnPositions(def, fk.Columns))
	}
	resolver := expr.ResolverFunc(func(id expr.ColumnID) (int, error) {
		if id.Table != "" && id.Table != def.Name {
			return -1, fmt.Errorf("storage: check constraint on %s references table %s", def.Name, id.Table)
		}
		if i := def.ColumnIndex(id.Name); i >= 0 {
			return i, nil
		}
		return -1, fmt.Errorf("storage: check constraint on %s references unknown column %s", def.Name, id.Name)
	})
	for i := range def.Columns {
		if def.Columns[i].Check == nil {
			continue
		}
		bound, err := expr.Bind(def.Columns[i].Check, resolver)
		if err != nil {
			return nil, err
		}
		w.checks = append(w.checks, bound)
	}
	for _, chk := range def.Checks {
		bound, err := expr.Bind(chk, resolver)
		if err != nil {
			return nil, err
		}
		w.checks = append(w.checks, bound)
	}
	return t, nil
}

// columnPositions returns the positions of the named columns in def.
func columnPositions(def *schema.Table, names []string) []int {
	cols := make([]int, len(names))
	for i, name := range names {
		cols[i] = def.ColumnIndex(name)
	}
	return cols
}

// Table returns the named table instance — the version current at the
// time of the call. On a snapshot that version is fixed; on the live store
// a later write may publish a newer version, but the returned one is
// immutable and stays valid.
func (s *Store) Table(name string) (*Table, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.table(name)
}

// table is Table without the lock, for callers already holding mu.
func (s *Store) table(name string) (*Table, error) {
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("storage: unknown table %s", name)
	}
	return t, nil
}

// Insert appends a row to the named table after enforcing every constraint:
// arity and type conformance, NOT NULL, CHECK (a row is rejected only when
// a check evaluates to false — unknown passes, per SQL2), PRIMARY KEY and
// UNIQUE, and FOREIGN KEY (all-NULL-or-match). The row is checked in the
// table's scratch row, so a refused row is written nowhere; an accepted one
// is copied once, into the table's slab.
func (s *Store) Insert(table string, row value.Row) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		return fmt.Errorf("storage: store snapshot is read-only")
	}
	t, err := s.table(table)
	if err != nil {
		return err
	}
	def, w := t.Def, t.w
	if len(row) != len(def.Columns) {
		return fmt.Errorf("storage: %s expects %d columns, got %d", table, len(def.Columns), len(row))
	}
	for i, col := range def.Columns {
		v := row[i]
		if !v.IsNull() {
			if v, err = coerce(v, col.Type); err != nil {
				return fmt.Errorf("storage: %s.%s: %w", table, col.Name, err)
			}
		} else if col.NotNull {
			return fmt.Errorf("storage: %s.%s is NOT NULL", table, col.Name)
		}
		w.row[i] = v
	}
	for _, chk := range w.checks {
		truth, err := expr.EvalTruth(chk, w.row, nil)
		if err != nil {
			return fmt.Errorf("storage: %s: evaluating check: %w", table, err)
		}
		if truth == value.False {
			return fmt.Errorf("storage: %s: check constraint (%s) violated by %s", table, chk, w.row)
		}
	}
	for ki, k := range def.Keys {
		if w.keyOf(ki, k.Primary) && w.keys[ki].Lookup(paged.Hash(w.key), w.key) >= 0 {
			return fmt.Errorf("storage: %s: duplicate value for %s", table, k)
		}
	}
	for fi, fk := range def.ForeignKeys {
		if err := s.checkForeignKey(def, fk, w, w.fkCols[fi]); err != nil {
			return err
		}
	}
	for ki, k := range def.Keys {
		if w.keyOf(ki, k.Primary) {
			w.keys[ki].Append(paged.Hash(w.key), w.key)
		}
	}
	// Copy-on-write publish: a fresh *Table carries the appended row so
	// snapshots holding the old version keep their exact multiset. The row
	// goes into the shared slab and its header onto the shared slice, both
	// past everything an older version can reach. The columnar cache starts
	// empty in the new version; old snapshots keep theirs.
	s.tables[table] = &Table{Def: def, rows: append(t.rows, w.slab.Copy(w.row)), w: w}
	s.epoch.Add(1)
	return nil
}

// keyOf encodes key ki of the row under check into w.key. It reports false for
// a row a candidate key exempts: UNIQUE-predicate semantics, under which a
// NULL in the key takes the row out of the uniqueness check.
func (w *writer) keyOf(ki int, primary bool) bool {
	cols := w.keyCols[ki]
	if !primary && anyNull(w.row, cols) {
		return false
	}
	w.key = w.key[:0]
	for _, c := range cols {
		w.key = value.AppendGroupKey(w.key, w.row[c])
	}
	return true
}

// MustInsert inserts and panics on error; a convenience for workload
// generators whose data is correct by construction.
func (s *Store) MustInsert(table string, row value.Row) {
	if err := s.Insert(table, row); err != nil {
		panic(err)
	}
}

func anyNull(row value.Row, cols []int) bool {
	for _, c := range cols {
		if row[c].IsNull() {
			return true
		}
	}
	return false
}

// checkForeignKey enforces MATCH SIMPLE semantics: if any referencing
// column is NULL the constraint is satisfied; otherwise the value list must
// equal the referenced key of some row in the referenced table. The row is
// w's row under check, cols the foreign key's positions in it.
func (s *Store) checkForeignKey(def *schema.Table, fk schema.ForeignKey, w *writer, cols []int) error {
	if anyNull(w.row, cols) {
		return nil
	}
	// Called with mu held by Insert; use the unlocked lookup.
	ref, err := s.table(fk.RefTable)
	if err != nil {
		return err
	}
	target := fk.RefColumns
	if len(target) == 0 {
		pk := ref.Def.PrimaryKey()
		if pk == nil {
			return fmt.Errorf("storage: foreign key target %s has no primary key", fk.RefTable)
		}
		target = pk.Columns
	}
	// Use the referenced table's key index when the target is one of its
	// keys (the catalog guarantees it is).
	for ki, k := range ref.Def.Keys {
		if !sameColumns(k.Columns, target) {
			continue
		}
		// Encode our values in the key's column order.
		w.key = w.key[:0]
		for _, keyCol := range k.Columns {
			w.key = value.AppendGroupKey(w.key, w.row[cols[slices.Index(target, keyCol)]])
		}
		if ref.w.keys[ki].Lookup(paged.Hash(w.key), w.key) >= 0 {
			return nil
		}
		ordered := make(value.Row, len(k.Columns))
		for i, keyCol := range k.Columns {
			ordered[i] = w.row[cols[slices.Index(target, keyCol)]]
		}
		return fmt.Errorf("storage: %s: foreign key (%v) has no match in %s", def.Name, ordered, fk.RefTable)
	}
	return fmt.Errorf("storage: foreign key target (%v) is not a key of %s", target, fk.RefTable)
}

// sameColumns reports whether a and b name the same columns, in any order.
func sameColumns(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for _, s := range b {
		if !slices.Contains(a, s) {
			return false
		}
	}
	return true
}

// coerce adapts a value to a column type: ints widen to DOUBLE columns and
// integral floats narrow to INTEGER columns; any other mismatch is an
// error.
func coerce(v value.Value, want value.Kind) (value.Value, error) {
	if v.Kind() == want {
		return v, nil
	}
	switch {
	case want == value.KindFloat && v.Kind() == value.KindInt:
		return value.NewFloat(float64(v.Int())), nil
	case want == value.KindInt && v.Kind() == value.KindFloat:
		f := v.Float()
		i := int64(f)
		if float64(i) == f {
			return value.NewInt(i), nil
		}
		return value.Null, fmt.Errorf("cannot store non-integral %s in INTEGER column", v)
	default:
		return value.Null, fmt.Errorf("cannot store %s value in %s column", v.Kind(), want)
	}
}
