package main

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestParseExperiments pins the -exp contract: 'all' and id lists in either
// case select experiments; an id the tool does not have — a typo or a
// retired experiment — is an error that names the valid ids, never a
// silently empty run.
func TestParseExperiments(t *testing.T) {
	all := experimentIDs()
	type testCase struct {
		name, arg string
		want      []string // nil = rejected
	}
	cases := []testCase{
		{"all", "all", all},
		{"all upper case", "ALL", all},
		{"subset", "E1,E5", []string{"E1", "E5"}},
		{"lower case and spaces", " e2 , e12 ", []string{"E12", "E2"}},
		{"repeated id", "E3,e3", []string{"E3"}},
		{"unknown", "E99", nil},
		{"all inside a list", "E1,all", nil},
		{"empty", "", nil},
		{"trailing comma", "E1,", nil},
	}
	// EXPERIMENTS.md ids that are not runners: readings of other records (9
	// to 11), a test suite (14), and the retired timing experiments.
	for _, n := range []int{9, 10, 11, 13, 14, 15, 16, 17} {
		id := fmt.Sprintf("E%d", n)
		cases = append(cases, testCase{id, id, nil}, testCase{id + " among valid", "E1," + id, nil})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseExperiments(tc.arg)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("parseExperiments(%q) accepted: %v", tc.arg, got)
				}
				if !strings.Contains(err.Error(), strings.Join(all, ",")) {
					t.Fatalf("rejection does not list the valid ids: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var ids []string
			for id, on := range got {
				if on {
					ids = append(ids, id)
				}
			}
			sort.Strings(ids)
			want := append([]string(nil), tc.want...)
			sort.Strings(want)
			if !reflect.DeepEqual(ids, want) {
				t.Fatalf("parseExperiments(%q) selects %v, want %v", tc.arg, ids, want)
			}
		})
	}
}
