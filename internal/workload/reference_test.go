package workload

import (
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/value"
)

// TestRefEvalSortAndLimit pins the reference's ORDER BY and LIMIT: a stable
// sort under value.OrderKey — tied rows keep their input order, NULLs sort
// first ascending and last descending — then the first N rows.
func TestRefEvalSortAndLimit(t *testing.T) {
	i, s, n := value.NewInt, value.NewString, value.Null
	in := &algebra.Values{
		Cols: algebra.Schema{
			{ID: expr.ColumnID{Table: "t", Name: "k"}, Type: value.KindInt},
			{ID: expr.ColumnID{Table: "t", Name: "tag"}, Type: value.KindString},
		},
		Rows: []value.Row{{i(2), s("a")}, {n, s("b")}, {i(1), s("c")}, {i(2), s("d")}, {i(1), s("e")}, {n, s("f")}},
	}
	sorted := func(desc bool) *algebra.Sort {
		return &algebra.Sort{Input: in, Keys: []algebra.SortItem{{Col: expr.ColumnID{Table: "t", Name: "k"}, Desc: desc}}}
	}
	cases := []struct {
		name string
		plan algebra.Node
		want string // the tags, in row order
	}{
		{"ascending, ties in input order", sorted(false), "bfcead"},
		{"descending, ties in input order", sorted(true), "adcebf"},
		{"LIMIT 0", &algebra.Limit{Input: sorted(false), N: 0}, ""},
		{"LIMIT within", &algebra.Limit{Input: sorted(true), N: 3}, "adc"},
		{"LIMIT above the row count", &algebra.Limit{Input: sorted(false), N: 10}, "bfcead"},
		{"LIMIT without ORDER BY", &algebra.Limit{Input: in, N: 2}, "ab"},
	}
	for _, c := range cases {
		rows, err := RefEval(c.plan, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := ""
		for _, r := range rows {
			got += r[1].Str()
		}
		if got != c.want {
			t.Errorf("%s: rows %q, want %q", c.name, got, c.want)
		}
	}
	if got := in.Rows[0][1].Str() + in.Rows[5][1].Str(); got != "af" {
		t.Errorf("sorting reordered the input's own rows: %q", got)
	}
}

// TestFingerprintTagsKinds: the fingerprint keeps apart what =ⁿ makes
// duplicates (int 1 and float 1.0) and what text could blur (a string that
// spells another cell); SameRows and Multiset agree with it.
func TestFingerprintTagsKinds(t *testing.T) {
	a := []value.Row{{value.NewInt(1), value.NewString("x")}, {value.Null, value.NewFloat(2.5)}}
	for _, b := range [][]value.Row{
		{{value.NewFloat(1), value.NewString("x")}, {value.Null, value.NewFloat(2.5)}},
		{{value.NewInt(1), value.NewString("x|i:1")}, {value.Null, value.NewFloat(2.5)}},
		{{value.NewInt(1), value.NewString("x")}, {value.NewString("NULL"), value.NewFloat(2.5)}},
	} {
		if slices.Equal(Fingerprint(a), Fingerprint(b)) || SameRows(a, b) || slices.Equal(Multiset(a), Multiset(b)) {
			t.Errorf("%v and %v fingerprint alike", a, b)
		}
	}
	swapped := []value.Row{a[1], a[0]}
	if !SameRows(a, slices.Clone(a)) || SameRows(a, swapped) || !slices.Equal(Multiset(a), Multiset(swapped)) {
		t.Error("SameRows must see order and Multiset must not")
	}
}
