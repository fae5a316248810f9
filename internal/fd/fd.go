// Package fd implements functional-dependency reasoning over qualified
// columns: column sets, dependency sets, and attribute-set transitive
// closure. This is the inference engine behind the paper's Algorithm TestFD
// (Section 6.3): key constraints contribute key dependencies, Type 1
// equality atoms (column = constant) contribute ∅ → column, Type 2 atoms
// (column = column) contribute dependencies in both directions, and the
// closure of the grouping columns decides whether FD1 and FD2 hold.
//
// Functional dependencies here follow the paper's Definition 2, i.e. they
// are stated with respect to =ⁿ row equivalence ("NULL equals NULL"), which
// is what makes key constraints and equality predicates sound inference
// rules in the presence of NULLs.
package fd

import (
	"sort"
	"strings"

	"repro/internal/expr"
)

// ColSet is a set of qualified columns.
type ColSet map[expr.ColumnID]bool

// NewColSet builds a set from the given columns.
func NewColSet(cols ...expr.ColumnID) ColSet {
	s := make(ColSet, len(cols))
	for _, c := range cols {
		s[c] = true
	}
	return s
}

// Add inserts a column.
func (s ColSet) Add(c expr.ColumnID) { s[c] = true }

// Has reports membership.
func (s ColSet) Has(c expr.ColumnID) bool { return s[c] }

// ContainsAll reports whether every column in cols is in the set.
func (s ColSet) ContainsAll(cols []expr.ColumnID) bool {
	for _, c := range cols {
		if !s[c] {
			return false
		}
	}
	return true
}

// ContainsSet reports whether other ⊆ s.
func (s ColSet) ContainsSet(other ColSet) bool {
	for c := range other {
		if !s[c] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s ColSet) Clone() ColSet {
	out := make(ColSet, len(s))
	for c := range s {
		out[c] = true
	}
	return out
}

// Cols returns the members sorted by (table, name), for deterministic
// display and iteration.
func (s ColSet) Cols() []expr.ColumnID {
	out := make([]expr.ColumnID, 0, len(s))
	for c := range s {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// String renders "{A.x, B.y}".
func (s ColSet) String() string {
	cols := s.Cols()
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = c.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// FD is a functional dependency From → To. An empty From means To is
// constant (a Type 1 equality pins it).
type FD struct {
	From []expr.ColumnID
	To   []expr.ColumnID
	// Reason documents the provenance for traces ("PRIMARY KEY (EmpID)",
	// "U.Machine = 'dragon'", ...).
	Reason string
}

// String renders "{from} -> {to}".
func (f FD) String() string {
	return NewColSet(f.From...).String() + " -> " + NewColSet(f.To...).String()
}

// Set is a collection of functional dependencies supporting attribute
// closure.
type Set struct {
	fds []FD
}

// NewSet returns an empty dependency set.
func NewSet() *Set { return &Set{} }

// Add appends a dependency.
func (s *Set) Add(f FD) { s.fds = append(s.fds, f) }

// AddKey records a key dependency: key → all columns of the table.
func (s *Set) AddKey(key []expr.ColumnID, all []expr.ColumnID, reason string) {
	s.Add(FD{From: key, To: all, Reason: reason})
}

// AddEquality records a Type 2 atom a = b as dependencies in both
// directions. (In the join result the two columns are equal whenever the
// predicate held, so each determines the other.)
func (s *Set) AddEquality(a, b expr.ColumnID, reason string) {
	s.Add(FD{From: []expr.ColumnID{a}, To: []expr.ColumnID{b}, Reason: reason})
	s.Add(FD{From: []expr.ColumnID{b}, To: []expr.ColumnID{a}, Reason: reason})
}

// AddConstant records a Type 1 atom col = c as ∅ → col: the column is
// functionally determined by anything (TestFD's step 4(b): add v into S).
func (s *Set) AddConstant(col expr.ColumnID, reason string) {
	s.Add(FD{To: []expr.ColumnID{col}, Reason: reason})
}

// All returns the dependencies in insertion order.
func (s *Set) All() []FD { return s.fds }

// Len returns the number of dependencies.
func (s *Set) Len() int { return len(s.fds) }

// Closure computes the attribute closure of start under the set: the
// transitive-closure loop of TestFD's step 4(c)/(g). The input set is not
// modified.
func (s *Set) Closure(start ColSet) ColSet {
	out := start.Clone()
	changed := true
	for changed {
		changed = false
		for _, f := range s.fds {
			if !out.ContainsAll(f.From) {
				continue
			}
			for _, c := range f.To {
				if !out[c] {
					out[c] = true
					changed = true
				}
			}
		}
	}
	return out
}

// ClosureTrace computes the closure while recording which dependency added
// each column, for EXPLAIN-style output (the paper's Figure 7
// illustration).
func (s *Set) ClosureTrace(start ColSet) (ColSet, []TraceStep) {
	out := start.Clone()
	var steps []TraceStep
	changed := true
	for changed {
		changed = false
		for _, f := range s.fds {
			if !out.ContainsAll(f.From) {
				continue
			}
			var added []expr.ColumnID
			for _, c := range f.To {
				if !out[c] {
					out[c] = true
					added = append(added, c)
					changed = true
				}
			}
			if len(added) > 0 {
				steps = append(steps, TraceStep{Added: added, Via: f})
			}
		}
	}
	return out, steps
}

// TraceStep records one closure expansion.
type TraceStep struct {
	Added []expr.ColumnID
	Via   FD
}

// String renders "+{cols} via reason".
func (t TraceStep) String() string {
	via := t.Via.Reason
	if via == "" {
		via = t.Via.String()
	}
	return "+" + NewColSet(t.Added...).String() + " via " + via
}

// Implies reports whether from → to follows from the set (to ⊆ closure of
// from).
func (s *Set) Implies(from, to []expr.ColumnID) bool {
	return s.Closure(NewColSet(from...)).ContainsAll(to)
}
