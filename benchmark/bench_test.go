package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/sql"
)

// smallFacts scales the star dataset down so the tests stay fast; the
// benchmark's own sizes are only used where the plan choice depends on them.
const smallFacts = 6000

func small(t *testing.T, name string) *workload {
	t.Helper()
	w, err := workloadNamed(name)
	if err != nil {
		t.Fatal(err)
	}
	if w.dataset == "star" {
		w.facts = smallFacts
	}
	return w
}

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending: the helper must sort
		}
		return out
	}
	cases := []struct {
		name    string
		samples []float64
		p       float64
		want    float64
		n       int
		ok      bool
	}{
		{"empty", nil, 50, 0, 0, false},
		{"one sample has nothing beyond it", seq(1), 50, 1, 1, false},
		{"p50 of 19 has 9 beyond", seq(19), 50, 10, 19, false},
		{"p50 of 20 has 10 beyond", seq(20), 50, 10, 20, true},
		{"p90 of 99 has 9 beyond", seq(99), 90, 90, 99, false},
		{"p90 of 100 has 10 beyond", seq(100), 90, 90, 100, true},
		{"p99 of 100 has 1 beyond", seq(100), 99, 99, 100, false},
		{"p99 of 1000 has 10 beyond", seq(1000), 99, 990, 1000, true},
		{"nearest rank rounds up", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}, 50, 11, 21, true},
	}
	for _, c := range cases {
		got, n, ok := percentile(c.samples, c.p)
		if got != c.want || n != c.n || ok != c.ok {
			t.Errorf("%s: percentile(p%v) = (%v, %d, %v), want (%v, %d, %v)", c.name, c.p, got, n, ok, c.want, c.n, c.ok)
		}
	}
	in := []float64{3, 1, 2}
	percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("percentile reordered its input: %v", in)
	}
}

// TestTurnsCancelTheMachine feeds the window arithmetic a caller whose
// machine ran at nominal speed for the first half of the window and slower
// for the second — the yardstick takes twice as long there, and every read
// as much longer as the yardstick says the engine does — and wants the
// numbers of a machine at nominal speed throughout.
func TestTurnsCancelTheMachine(t *testing.T) {
	fast, slow := &query{id: "fast"}, &query{id: "slow"}
	w := &workload{queries: []*query{fast, slow}}
	const rounds = 4 * turns
	var rs []read
	var now time.Duration
	var yard reading
	for i := 0; i < rounds; i++ {
		yardRun, engine := yardstickNominal, 1.0
		if i >= rounds/2 {
			yardRun *= 2
			engine = slowdown(reading{}, reading{spent: yardRun, runs: 1})
		}
		for _, q := range w.queries {
			lat := time.Duration(engine * float64(time.Millisecond))
			if q == slow {
				lat *= 9
			}
			// two yardstick runs, then the read
			yard.spent += 2 * yardRun
			yard.runs += 2
			now += 2*yardRun + lat
			rs = append(rs, read{q: q, ms: ms(lat), done: now, yard: yard})
		}
	}
	m := &window{reads: [][]read{rs}}
	ts := m.cut(w)
	if len(ts) != turns {
		t.Fatalf("cut made %d turns, want %d", len(ts), turns)
	}
	near := func(name string, got, want float64) {
		t.Helper()
		if got < want*0.999 || got > want*1.001 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	templates := perTemplate(w, ts)
	p50, p90, n, ok := typical(templates)
	near("p50", p50, 3) // geometric mean of 1 ms and 9 ms
	near("p90", p90, 3) // every read took its template's median
	if n != 2*rounds || !ok {
		t.Errorf("typical counted %d samples (ok %v), want %d with ten beyond the p90", n, ok, 2*rounds)
	}
	near("reads per second", m.readsPerSecond(ts), 200) // 2 reads per 10 ms of the caller's own time
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := starDataset(7, smallFacts).checksum(), starDataset(7, smallFacts).checksum(); a != b {
		t.Errorf("star: same seed, checksums %x and %x", a, b)
	}
	if a, b := starDataset(7, smallFacts).checksum(), starDataset(8, smallFacts).checksum(); a == b {
		t.Errorf("star: seeds 7 and 8 share checksum %x", a)
	}
	if a, b := hrDataset(7).checksum(), hrDataset(7).checksum(); a != b {
		t.Errorf("hr: same seed, checksums %x and %x", a, b)
	}
	if a, b := hrDataset(7).checksum(), hrDataset(8).checksum(); a == b {
		t.Errorf("hr: seeds 7 and 8 share checksum %x", a)
	}

	w := small(t, "serve_mixed")
	ops := func(seed int64, caller int) string {
		var b strings.Builder
		seq := newSequence(w, seed, caller)
		for i := 0; i < 500; i++ {
			b.WriteString(seq.next().text() + "\n")
		}
		return b.String()
	}
	if ops(7, 0) != ops(7, 0) {
		t.Error("serve_mixed: same seed and caller, different op sequences")
	}
	if ops(7, 0) == ops(8, 0) {
		t.Error("serve_mixed: seeds 7 and 8 give the same op sequence")
	}
	if ops(7, 0) == ops(7, 1) {
		t.Error("serve_mixed: callers 0 and 1 share an op sequence")
	}
}

// declaration mirrors BENCHMARK.json.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestDeclarationMatchesProgram(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	if len(d.Paths) != 1 || d.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", d.Paths)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", d.RunSeconds)
	}

	ws := workloads()
	if len(d.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(d.Workloads), len(ws))
	}
	seen := map[string]bool{}
	for i, w := range ws {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, the program {%s %s}", i, d.Workloads[i], w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") || seen[w.name] {
			t.Errorf("workload %q breaks the naming rules", w.name)
		}
		seen[w.name] = true
	}
	check := func(kind string, declared []declaredMetric, program []metric, bounded bool) {
		if len(declared) != len(program) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(declared), len(program))
		}
		for i, m := range program {
			dm := declared[i]
			if dm.Name != m.name || dm.Unit != m.unit || dm.Better != m.better {
				t.Errorf("%s metric %d: BENCHMARK.json says {%s %s %s}, the program {%s %s %s}", kind, i, dm.Name, dm.Unit, dm.Better, m.name, m.unit, m.better)
			}
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) || seen[m.name] {
				t.Errorf("%s metric %q (%s) breaks the naming rules", kind, m.name, m.unit)
			}
			seen[m.name] = true
			if m.better != "lower" && m.better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, m.name, m.better)
			}
			switch {
			case bounded && (dm.Bound == nil || *dm.Bound != m.bound || m.bound <= 0 || m.bound > 0.25):
				t.Errorf("%s metric %s: bound %v in BENCHMARK.json, %v in the program, want equal and in (0, 0.25]", kind, m.name, dm.Bound, m.bound)
			case !bounded && dm.Bound != nil:
				t.Errorf("%s metric %s has a bound", kind, m.name)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd, true)
	check("per_layer", d.PerLayer, perLayer, false)

	var out bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, w := range ws {
		want.WriteString("workload " + w.name + "\n")
	}
	for _, m := range endToEnd {
		want.WriteString("end_to_end " + m.name + " " + m.unit + "\n")
	}
	for _, m := range perLayer {
		want.WriteString("per_layer " + m.name + " " + m.unit + "\n")
	}
	if out.String() != want.String() {
		t.Errorf("-list printed\n%s\nwant\n%s", out.String(), want.String())
	}
}

func TestBadFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "olap"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-aa", "-trace", "1"},
		{"-aa", "-workload", "olap_eager"},
		{"-list", "stray"},
		{"-no-such-flag"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("args %v: accepted, want an error", args)
		}
	}
}

func TestSpellingsShareOnePlanCacheKey(t *testing.T) {
	for _, q := range hrQueries() {
		if len(q.variants) != 4 {
			t.Fatalf("%s: %d spellings, want 4", q.id, len(q.variants))
		}
		texts := map[string]bool{}
		canon := map[string]bool{}
		for _, text := range q.variants {
			stmt, err := sql.ParseQuery(text)
			if err != nil {
				t.Fatalf("%s: %q: %v", q.id, text, err)
			}
			texts[text] = true
			canon[sql.Canonical(stmt)] = true
		}
		if len(texts) != 4 || len(canon) != 1 {
			t.Errorf("%s: %d distinct texts and %d canonical forms, want 4 and 1", q.id, len(texts), len(canon))
		}
	}
}

func TestVerifierFlagsCorruptedRows(t *testing.T) {
	ctx := context.Background()
	w := small(t, "olap_eager")
	p, err := prepare(w, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := setUp(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close(ctx)
	for _, q := range w.queries {
		o := op{q: q}
		rows, err := sys.read(ctx, 0, o.text())
		if err != nil {
			t.Fatal(err)
		}
		if !p.verify.ok(o, rows) {
			t.Fatalf("%s: the engine's answer does not verify", q.id)
		}
		last := len(rows[0]) - 1
		saved := rows[0][last]
		rows[0][last] = saved.(int64) + 1
		if p.verify.ok(o, rows) {
			t.Errorf("%s: a corrupted cell verifies", q.id)
		}
		rows[0][last] = saved
		if p.verify.ok(o, rows[1:]) {
			t.Errorf("%s: a missing row verifies", q.id)
		}
		rows[0], rows[1] = rows[1], rows[0]
		if got := p.verify.ok(o, rows); got == q.ordered {
			t.Errorf("%s (ordered=%v): two swapped rows verify = %v", q.id, q.ordered, got)
		}
	}

	kv := hrQueries()[2]
	if kv.kvCheck == nil {
		t.Fatalf("%s is not a kv read", kv.id)
	}
	v := &verifier{}
	good := [][]any{{int64(hrKVSeed + 3), int64(40), int64(20)}}
	torn := [][]any{{int64(hrKVSeed + 3), int64(41), int64(20)}}
	if !v.ok(op{q: kv}, good) || v.ok(op{q: kv}, torn) || v.ok(op{q: kv}, nil) {
		t.Error("kv invariant check: want good accepted, torn and empty rejected")
	}
}

// TestWorkloadsPickTheirPlans holds each workload to the plan it exists to
// exercise, at the benchmark's own data sizes: shape (a) runs with the
// group-by below the join, the many-groups queries above it.
func TestWorkloadsPickTheirPlans(t *testing.T) {
	for _, w := range workloads() {
		var d *dataset
		if w.dataset == "star" {
			d = starDataset(1, w.facts)
		} else {
			d = hrDataset(1)
		}
		sh, err := newShadow(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sh.load(d); err != nil {
			t.Fatal(err)
		}
		newStager(w, sh, &tracer{off: true})
		for _, q := range w.queries {
			stmt, err := sql.ParseQuery(q.variants[0])
			if err != nil {
				t.Fatal(err)
			}
			r, err := sh.opt.Optimize(stmt)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.name, q.id, err)
			}
			if r.Transformed != q.eager {
				t.Errorf("%s/%s: optimizer chose eager=%v, the workload relies on eager=%v (%s)", w.name, q.id, r.Transformed, q.eager, r.WhyNot)
			}
		}
	}
}

// TestRunsPrintEveryDeclaredMetric runs scaled-down workloads end to end
// in both modes and checks the output contract, not the timings.
func TestRunsPrintEveryDeclaredMetric(t *testing.T) {
	ctx := context.Background()
	window := 400 * time.Millisecond
	res, err := runUntraced(ctx, small(t, "serve_mixed"), 1, window)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, endToEnd)
	for _, m := range endToEnd {
		if res.metrics[m.name] <= 0 {
			t.Errorf("serve_mixed: end-to-end metric %s = %v, want positive", m.name, res.metrics[m.name])
		}
	}
	for _, name := range []string{"serve_mixed", "dist_ship"} {
		res, err := runTraced(ctx, small(t, name), 1, window, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, perLayer)
		if hit := res.metrics["core.plan_cache_hit_share"]; name == "serve_mixed" && (hit <= 0.5 || hit >= 1) {
			t.Errorf("serve_mixed: plan cache hit share %v, want strictly between 0.5 and 1", hit)
		}
		if kb := res.metrics["dist.comm_kb_per_query"]; name == "dist_ship" && kb <= 0 {
			t.Errorf("dist_ship: shipped %v KB per query", kb)
		}
	}
}

func checkResult(t *testing.T, res *runResult, ms []metric) {
	t.Helper()
	if res.failed != 0 || res.attempted < 1 {
		t.Errorf("%s: %d of %d ops failed", res.workload, res.failed, res.attempted)
	}
	line := res.line(ms)
	if len(line.Metrics) != len(ms) || len(res.metrics) != len(ms) {
		t.Errorf("%s: %d metrics measured, %d printed, %d declared", res.workload, len(res.metrics), len(line.Metrics), len(ms))
	}
	buf, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := back[key]; !ok {
			t.Errorf("%s: result line lacks %q", res.workload, key)
		}
	}
	if len(back) != 4 {
		t.Errorf("%s: result line has %d keys, want 4", res.workload, len(back))
	}
}
