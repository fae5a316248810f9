package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/expr"
)

// This file implements the column-substitution technique the paper's
// Section 9 sketches: "Column substitution can be used to improve the
// chance of a query being tested transformable. First, column substitution
// can be employed to obtain a set of equivalent queries. Based on this set,
// all possible partitions of the tables can be performed and the resulting
// queries can all be tested."
//
// A top-level equality conjunct c1 = c2 holds (true, hence both operands
// non-null and equal) in every row of the join result, so replacing c1 by
// c2 inside an aggregate argument cannot change any aggregate's value —
// not even COUNT's null-skipping or DISTINCT's deduplication. Rewriting
// aggregate arguments this way moves tables between the R1/R2 groups,
// yielding alternative partitions to run TestFD on. COUNT(*)-only queries,
// whose aggregation columns constrain nothing, get the full enumeration.

// substCandidate is one alternative partition with (possibly) rewritten
// aggregate arguments.
type substCandidate struct {
	// bound is the query with aggregate arguments rewritten into R1.
	bound *BoundQuery
	// r1 is the R1 override for Normalize.
	r1 []string
	// note documents the substitutions for EXPLAIN output.
	note string
}

// colUnion is a union-find over columns: the equivalence classes that
// column = column atoms (Type 2) induce. Substitution (equivClasses) and
// predicate expansion (ExpandPredicates) both build theirs with it.
type colUnion map[expr.ColumnID]expr.ColumnID

// find returns c's class representative, making c a class of its own on
// first sight.
func (u colUnion) find(c expr.ColumnID) expr.ColumnID {
	p, ok := u[c]
	if !ok || p == c {
		u[c] = c
		return c
	}
	root := u.find(p)
	u[c] = root
	return root
}

// union merges the classes of the two columns of a Type 2 atom.
func (u colUnion) union(atom expr.EqAtom) { u[u.find(atom.Col)] = u.find(atom.Col2) }

// equivClasses builds column equivalence classes from the top-level Type 2
// equality conjuncts of the WHERE clause.
func equivClasses(where expr.Expr) map[expr.ColumnID][]expr.ColumnID {
	u := colUnion{}
	for _, conj := range expr.Conjuncts(where) {
		if atom := expr.ClassifyAtom(conj); atom.Class == expr.AtomColCol {
			u.union(atom)
		}
	}
	classes := make(map[expr.ColumnID][]expr.ColumnID)
	for c := range u {
		root := u.find(c)
		classes[root] = append(classes[root], c)
	}
	out := make(map[expr.ColumnID][]expr.ColumnID, len(u))
	for _, members := range classes {
		sort.Slice(members, func(i, j int) bool {
			if members[i].Table != members[j].Table {
				return members[i].Table < members[j].Table
			}
			return members[i].Name < members[j].Name
		})
		for _, c := range members {
			out[c] = members
		}
	}
	return out
}

// substitutionCandidates enumerates alternative partitions, smallest R1
// first, excluding the default AA-based partition (the caller tried it
// already). For each candidate, aggregate arguments are rewritten to
// reference only R1 tables where possible; candidates that cannot cover
// every aggregation column are skipped.
func substitutionCandidates(b *BoundQuery, defaultR1 map[string]bool) []substCandidate {
	aliases := b.Tables()
	if len(aliases) < 2 || len(aliases) > 8 {
		return nil // 2^n enumeration is only sane for small FROM lists
	}
	classes := equivClasses(b.Where)

	var out []substCandidate
	// Enumerate non-empty proper subsets, by increasing size then FROM
	// order, so cheaper-to-aggregate candidates are tried first.
	type subset struct {
		mask int
		size int
	}
	var subsets []subset
	full := 1 << len(aliases)
	for mask := 1; mask < full-1; mask++ {
		size := 0
		for m := mask; m != 0; m &= m - 1 {
			size++
		}
		subsets = append(subsets, subset{mask: mask, size: size})
	}
	sort.SliceStable(subsets, func(i, j int) bool { return subsets[i].size < subsets[j].size })

	for _, sub := range subsets {
		r1Set := make(map[string]bool)
		var r1 []string
		for i, a := range aliases {
			if sub.mask&(1<<i) != 0 {
				r1Set[a] = true
				r1 = append(r1, a)
			}
		}
		if sameAliasSet(r1Set, defaultR1) {
			continue
		}
		cand, ok := rewriteForPartition(b, r1Set, r1, classes)
		if ok {
			out = append(out, cand)
		}
	}
	return out
}

func sameAliasSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// rewriteForPartition rewrites every aggregate argument in the select list
// to reference only r1Set tables, using the equivalence classes. It fails
// (ok=false) when some aggregation column has no equivalent inside R1.
func rewriteForPartition(
	b *BoundQuery,
	r1Set map[string]bool,
	r1 []string,
	classes map[expr.ColumnID][]expr.ColumnID,
) (substCandidate, bool) {
	var notes []string
	blocked := false
	substituteArg := func(e expr.Expr) expr.Expr {
		return expr.RewritePre(e, func(n expr.Expr) expr.Expr {
			c, ok := n.(*expr.ColumnRef)
			if !ok || r1Set[c.ID.Table] {
				return nil
			}
			for _, alt := range classes[c.ID] {
				if r1Set[alt.Table] {
					notes = append(notes, fmt.Sprintf("%s -> %s", c.ID, alt))
					return expr.Column(alt.Table, alt.Name)
				}
			}
			blocked = true
			return nil
		})
	}

	changed := false
	rewriteAggs := func(e expr.Expr) expr.Expr {
		return expr.RewritePre(e, func(n expr.Expr) expr.Expr {
			a, ok := n.(*expr.Aggregate)
			if !ok {
				return nil
			}
			if a.Arg == nil {
				return a
			}
			newArg := substituteArg(a.Arg)
			if expr.Equal(newArg, a.Arg) {
				return a
			}
			changed = true
			return &expr.Aggregate{Func: a.Func, Arg: newArg, Distinct: a.Distinct}
		})
	}
	items := make([]algebra.ProjItem, len(b.Items))
	for i, it := range b.Items {
		rewrittenItem := rewriteAggs(it.E)
		if blocked {
			return substCandidate{}, false
		}
		items[i] = algebra.ProjItem{E: rewrittenItem, As: it.As}
	}
	having := rewriteAggs(b.Having)
	if blocked {
		return substCandidate{}, false
	}
	// Verify the rewrite actually confined the aggregation columns to R1.
	check := make([]expr.Expr, 0, len(items)+1)
	for _, it := range items {
		check = append(check, it.E)
	}
	if having != nil {
		check = append(check, having)
	}
	for _, e := range check {
		for _, a := range expr.Aggregates(e) {
			for _, t := range expr.Tables(a.Arg) {
				if !r1Set[t] {
					return substCandidate{}, false
				}
			}
		}
	}
	nb := *b
	nb.Items = items
	nb.Having = having
	note := "partition override R1 = {" + strings.Join(r1, ", ") + "}"
	if changed {
		note += "; column substitution: " + strings.Join(notes, ", ")
	}
	return substCandidate{bound: &nb, r1: r1, note: note}, true
}
