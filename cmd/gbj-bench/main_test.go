package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
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

// TestEveryExperimentRuns runs the whole tool once, at one repetition per
// measurement, and checks the paper's answers in its output: Figure 1's
// cardinalities and choice, Figure 8's refusal, Example 3's TestFD YES, and
// E12's measured bytes on the default 4-node cluster.
func TestEveryExperimentRuns(t *testing.T) {
	knobs.Register(flag.NewFlagSet("gbj-bench", flag.ContinueOnError), knobHelp)
	var buf bytes.Buffer
	out, record = &buf, &bench.File{}
	defer func() { out, record = os.Stdout, nil }()
	want, err := parseExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if !runExperiments(want, 1) {
		t.Fatalf("an experiment failed; output so far:\n%s", buf.String())
	}
	text := buf.String()
	for _, line := range []string{
		"join 10000 x 100 -> 10000",
		"group   10000 -> 100",
		"optimizer choice: transformed=true\n",
		"optimizer choice: transformed=false (must be false)",
		"answer: YES — FD1 and FD2 hold in the join result",
		"nested (materialize view, then join)",
		"reduction: 100x",
		"10               1350208          1018",
		"50000            2325000       1870644",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("output lacks %q", line)
		}
	}
	// One record per comparison: E1-E4 one each, E5 seven, E6 five, E8
	// twelve, E12 five; E7 estimates and records nothing.
	if got := len(record.Runs); got != 33 {
		t.Errorf("%d run records, want 33", got)
	}
	if t.Failed() {
		t.Logf("output:\n%s", text)
	}
}
