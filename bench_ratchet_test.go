package gbj

// The allocation ratchet over the benchmark's trajectory: the committed
// BENCH_pr<N>.json records (make bench-record), read in the order of N.
// Allocation per query is the one end-to-end number a single window measures
// to a few parts in a thousand, and it moves only where a change moves it, so
// the newest record may not allocate more than allocRatchet times the
// previous one on any workload — unless BENCH_allowances.json names that
// record, that workload and a ratio at least the one measured: an increase a
// change means to make is written down, and the bound itself never moves.
// Timings are not gated: one window per record does not measure them, and
// make bench-trend only prints each record's numbers as ratios of the
// previous record's (TestBenchTrend). Every record must also have run every
// operation correctly.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"text/tabwriter"
)

// allocRatchet is the most the newest record's alloc_mb_per_query may be of
// the previous record's, workload by workload, without an allowance.
const allocRatchet = 1.03

// benchRecord is the part of a BENCH_pr<N>.json record the ratchet reads.
type benchRecord struct {
	pr        int
	Workloads map[string]struct {
		Correct bool  `json:"correct"`
		Failed  int64 `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"workloads"`
}

// allowance is one entry of BENCH_allowances.json: record BENCH_pr<N>.json,
// N = Record, may allocate up to Ratio times the previous record on Workload,
// for the reason Why.
type allowance struct {
	Record   int     `json:"pr"`
	Workload string  `json:"workload"`
	Ratio    float64 `json:"ratio"`
	Why      string  `json:"why"`
}

var benchRecordName = regexp.MustCompile(`^BENCH_pr(\d+)\.json$`)

// readTrajectory reads the records in dir in the order of their numbers, and
// the allowances.
func readTrajectory(dir string) ([]benchRecord, []allowance, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_pr*.json"))
	if err != nil {
		return nil, nil, err
	}
	var records []benchRecord
	for _, path := range paths {
		m := benchRecordName.FindStringSubmatch(filepath.Base(path))
		if m == nil {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		var r benchRecord
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		r.pr, _ = strconv.Atoi(m[1])
		records = append(records, r)
	}
	slices.SortFunc(records, func(a, b benchRecord) int { return a.pr - b.pr })
	var allowances []allowance
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_allowances.json"))
	if err == nil {
		err = json.Unmarshal(data, &allowances)
	} else if os.IsNotExist(err) {
		err = nil
	}
	return records, allowances, err
}

// checkTrajectory is the ratchet over the records in dir.
func checkTrajectory(dir string) error {
	records, allowances, err := readTrajectory(dir)
	if err != nil {
		return err
	}
	for _, r := range records {
		for name, w := range r.Workloads {
			if w.Failed > 0 || !w.Correct {
				return fmt.Errorf("BENCH_pr%d.json: %s failed %d operations (correct %v)", r.pr, name, w.Failed, w.Correct)
			}
		}
	}
	if len(records) < 2 {
		return nil
	}
	prev, last := records[len(records)-2], records[len(records)-1]
	for name, w := range last.Workloads {
		before, ok := prev.Workloads[name]
		if !ok {
			continue
		}
		was, now := before.Metrics["alloc_mb_per_query"].Value, w.Metrics["alloc_mb_per_query"].Value
		if was <= 0 {
			continue
		}
		bound := allocRatchet
		for _, a := range allowances {
			if a.Record == last.pr && a.Workload == name {
				bound = max(bound, a.Ratio)
			}
		}
		if ratio := now / was; ratio > bound {
			return fmt.Errorf("BENCH_pr%d.json: %s allocates %.4f MB a query, %.3f times BENCH_pr%d.json's %.4f: over %.3f without an allowance in BENCH_allowances.json",
				last.pr, name, now, ratio, prev.pr, was, bound)
		}
	}
	return nil
}

// benchTrend renders the records as a ratio table: a row per workload and
// metric, a column per record after the first, holding the record's value
// over the previous record's; "-" where either lacks the value.
func benchTrend(records []benchRecord) string {
	var workloads, metrics []string
	for _, r := range records {
		for name, w := range r.Workloads {
			if !slices.Contains(workloads, name) {
				workloads = append(workloads, name)
			}
			for m := range w.Metrics {
				if !slices.Contains(metrics, m) {
					metrics = append(metrics, m)
				}
			}
		}
	}
	slices.Sort(workloads)
	slices.Sort(metrics)
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "workload\tmetric")
	for i := 1; i < len(records); i++ {
		fmt.Fprintf(tw, "\tpr%d/pr%d", records[i].pr, records[i-1].pr)
	}
	fmt.Fprintln(tw)
	for _, name := range workloads {
		for _, m := range metrics {
			fmt.Fprintf(tw, "%s\t%s", name, m)
			for i := 1; i < len(records); i++ {
				was, ok1 := records[i-1].Workloads[name].Metrics[m]
				now, ok2 := records[i].Workloads[name].Metrics[m]
				if ok1 && ok2 && was.Value != 0 {
					fmt.Fprintf(tw, "\t%.3f", now.Value/was.Value)
				} else {
					fmt.Fprint(tw, "\t-")
				}
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
	return sb.String()
}

// TestBenchTrend logs the committed records' ratio table (make bench-trend
// runs it with -v). It gates nothing.
func TestBenchTrend(t *testing.T) {
	records, _, err := readTrajectory(".")
	if err != nil {
		t.Fatal(err)
	}
	t.Log("each record's value over the previous record's:\n" + benchTrend(records))
}

func TestBenchTrajectoryAllocationRatchet(t *testing.T) {
	if err := checkTrajectory("."); err != nil {
		t.Fatal(err)
	}
}

// The ratchet fails a record that allocates 5 % more than the one before it,
// unless an allowance covers it, and a record with a failed operation or a
// wrong answer, wherever it stands.
func TestBenchTrajectoryCatchesDoctoredRecords(t *testing.T) {
	base, err := os.ReadFile("BENCH_pr45.json")
	if err != nil {
		t.Fatal(err)
	}
	doctor := func(edit func(w map[string]any)) []byte {
		t.Helper()
		var r map[string]any
		if err := json.Unmarshal(base, &r); err != nil {
			t.Fatal(err)
		}
		edit(r["workloads"].(map[string]any)["serve_mixed"].(map[string]any))
		out, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	raised := doctor(func(w map[string]any) {
		alloc := w["metrics"].(map[string]any)["alloc_mb_per_query"].(map[string]any)
		alloc["value"] = alloc["value"].(float64) * 1.05
	})
	for _, tc := range []struct {
		name   string
		files  map[string][]byte
		passes bool
	}{
		{"as committed", map[string][]byte{"BENCH_pr45.json": base, "BENCH_pr46.json": base}, true},
		{"allocation raised 5 %", map[string][]byte{"BENCH_pr45.json": base, "BENCH_pr46.json": raised}, false},
		{"allocation raised 5 %, allowed", map[string][]byte{
			"BENCH_pr45.json": base, "BENCH_pr46.json": raised,
			"BENCH_allowances.json": []byte(`[{"pr": 46, "workload": "serve_mixed", "ratio": 1.06, "why": "test"}]`),
		}, true},
		{"allowance for another workload", map[string][]byte{
			"BENCH_pr45.json": base, "BENCH_pr46.json": raised,
			"BENCH_allowances.json": []byte(`[{"pr": 46, "workload": "serve_wide", "ratio": 1.06, "why": "test"}]`),
		}, false},
		{"in number order, not name order", map[string][]byte{"BENCH_pr9.json": raised, "BENCH_pr45.json": base}, true},
		{"a failed operation", map[string][]byte{"BENCH_pr45.json": doctor(func(w map[string]any) { w["failed"] = 1 })}, false},
		{"a wrong answer", map[string][]byte{
			"BENCH_pr9.json": doctor(func(w map[string]any) { w["correct"] = false }), "BENCH_pr45.json": base,
		}, false},
	} {
		dir := t.TempDir()
		for name, data := range tc.files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := checkTrajectory(dir); (err == nil) != tc.passes {
			t.Errorf("%s: ratchet error %v, want passing %v", tc.name, err, tc.passes)
		}
	}
}
