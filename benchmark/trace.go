package main

// The traced run. It replays a workload's seeded ops through the staged
// query path (stage.go), then runs the same op through the real entry
// points — the engine, the handler on a recorder, the client — and reports
// what the stages do not account for as glue and overhead. Spans are kept
// in memory and written out when the replay ends.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	gbj "repro"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/vec"
)

// replayOps is the length of the fixed, seeded replay; a slow workload
// stops earlier, at its share of the run's time. In a workload with writes
// every replayWriteEvery-th op of the replay is an INSERT.
const (
	replayOps        = 200
	replayWriteEvery = 50
)

// series collects samples by metric name and, within a metric, by read
// template ("" for what is measured once per run). A metric is reduced per
// template first and then averaged over templates, so its value does not
// depend on how many ops of each template the replay had time for.
type series map[string]map[string][]float64

func (s series) add(name, template string, v float64) {
	if s[name] == nil {
		s[name] = make(map[string][]float64)
	}
	s[name][template] = append(s[name][template], v)
}

// addIf records a stage's time only when the stage ran.
func (s series) addIf(name, template string, d, unit time.Duration) {
	if d > 0 {
		s.add(name, template, float64(d)/float64(unit))
	}
}

// value reduces a metric: each template's samples to their median —
// shares, being 0/1 samples, to their mean — and the templates to their
// mean. A metric with no samples on this workload is 0.
func (s series) value(m metric) float64 {
	reduce := median
	if m.unit == "ratio" {
		reduce = mean
	}
	templates := make([]string, 0, len(s[m.name]))
	for t := range s[m.name] {
		templates = append(templates, t)
	}
	sort.Strings(templates)
	var per []float64
	for _, t := range templates {
		per = append(per, reduce(s[m.name][t]))
	}
	return mean(per)
}

// opClass buckets plan operators for the self-time metrics.
func opClass(n algebra.Node) string {
	switch n.(type) {
	case *algebra.Scan, *dist.Leaf:
		return "scan"
	case *algebra.Select:
		return "filter"
	case *algebra.Join, *algebra.Product:
		return "join"
	case *algebra.GroupBy:
		return "group"
	case *algebra.Sort, *algebra.Limit:
		return "sort"
	case *algebra.Project:
		return "project"
	}
	return "other"
}

var selfClasses = []string{"scan", "filter", "join", "group", "sort", "project"}

// opProfile sums one execution's collector by operator class.
type opProfile struct {
	selfMS                         map[string]float64
	joinInput, groupInput, scanned int64
	stateBytes, batches            int64
}

// profile walks the executed plan. An operator's self time is its
// inclusive wall time minus its children's; under parallel execution a
// join drains both inputs at once, so the children can sum to more than
// the parent, and self time is floored at 0.
func profile(plan algebra.Node, col *obs.Collector) opProfile {
	p := opProfile{selfMS: make(map[string]float64)}
	algebra.Walk(plan, func(n algebra.Node) {
		m := col.Lookup(n)
		if m == nil {
			return
		}
		snap := m.Snapshot()
		self := snap.WallNanos
		for _, c := range n.Children() {
			if cm := col.Lookup(c); cm != nil {
				self -= cm.WallNanos.Load()
			}
		}
		if self < 0 {
			self = 0
		}
		class := opClass(n)
		p.selfMS[class] += float64(self) / 1e6
		switch class {
		case "join":
			p.joinInput += snap.RowsIn
		case "group":
			p.groupInput += snap.RowsIn
		case "scan":
			p.scanned += snap.RowsOut
		}
		p.stateBytes += snap.StateBytes
		p.batches += snap.Batches
	})
	return p
}

// mallocs returns how many heap objects f allocated, process-wide.
func mallocs(f func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), err
}

// fastest returns the shortest of reps timings of f.
func fastest(reps int, f func() error) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(t); i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// perTemplate measures, once per read template, what does not need the op
// sequence: parser and executor allocations, TestFD on its own, what the
// spans and the metrics collector cost, and plan regret — the chosen
// plan's time over the faster of the optimizer's two plans, both through
// exec.Run. Timings are the fastest of reps, which a collection or a
// descheduling cannot lengthen.
func (st *stager) perTemplate(ctx context.Context, q *query, s series) error {
	const reps = 3
	text := q.variants[0]
	stage := func(traced bool) func() error {
		return func() error {
			st.tr.off = !traced
			defer func() { st.tr.off = false }()
			_, err := st.query(ctx, replayOps, text, traced)
			return err
		}
	}
	untraced, err := fastest(reps, stage(false))
	if err != nil {
		return err
	}
	traced, err := fastest(reps, stage(true))
	if err != nil {
		return err
	}
	s.add("trace.overhead_share", q.id, 1-float64(untraced)/float64(traced))

	n, err := mallocs(func() error { _, err := sql.ParseQuery(text); return err })
	if err != nil {
		return err
	}
	s.add("sql.parse_allocs", q.id, n)

	stmt, err := sql.ParseQuery(text)
	if err != nil {
		return err
	}
	b, err := st.sh.opt.Planner().Bind(stmt)
	if err != nil {
		return err
	}
	t := time.Now()
	if shape, err := core.Normalize(b, nil); err == nil {
		core.TestFD(shape)
	}
	s.add("core.testfd_us", q.id, us(time.Since(t)))
	r, err := st.sh.opt.OptimizeBound(b)
	if err != nil {
		return err
	}
	snap := st.sh.store.Snapshot()
	runPlan := func(plan algebra.Node, collect bool) func() error {
		return func() error {
			var col *obs.Collector
			if collect {
				col = obs.NewCollector()
			}
			_, err := exec.Run(plan, snap, st.execOptions(ctx, plan, col))
			return err
		}
	}
	chosen := r.Chosen()
	n, err = mallocs(runPlan(chosen, false))
	if err != nil {
		return err
	}
	s.add("exec.allocs_per_run", q.id, n)
	plain, err := fastest(reps, runPlan(chosen, false))
	if err != nil {
		return err
	}
	collected, err := fastest(reps, runPlan(chosen, true))
	if err != nil {
		return err
	}
	s.add("exec.metrics_overhead_share", q.id, float64(collected-plain)/float64(plain))

	best := plain
	if r.Alternative != nil {
		other := r.Alternative
		if r.Transformed {
			other = r.Standard
		}
		d, err := fastest(reps, runPlan(other, false))
		if err != nil {
			return err
		}
		if d < best {
			best = d
		}
	}
	s.add("core.plan_regret", q.id, float64(plain)/float64(best))
	// Within 5% of the faster plan counts as the right choice: closer
	// than that, two timings cannot tell the plans apart.
	s.add("core.choice_correct_share", q.id, share(float64(plain) <= 1.05*float64(best)))
	return nil
}

func share(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// storageProbes times what the storage and vec layers do once per data
// load: the columnar build of the dataset's largest table and the key
// encoder over its batches.
func storageProbes(sh *shadow, s series) error {
	var largest *storage.Table
	for _, name := range sh.store.Catalog().TableNames() {
		tab, err := sh.store.Table(name)
		if err != nil {
			return err
		}
		if largest == nil || tab.Len() > largest.Len() {
			largest = tab
		}
	}
	// Loading left garbage behind; collect it now rather than during the
	// sub-millisecond timings below.
	runtime.GC()
	t := time.Now()
	batches := largest.Columnar()
	s.add("storage.columnar_build_ms", "", ms(time.Since(t)))

	// Column 1 is the join and grouping key of Fact (DimID) and of Emp
	// (DeptID).
	enc := &vec.KeyEncoder{}
	cols := []int{1}
	d, err := fastest(3, func() error {
		for _, b := range batches {
			enc.Encode(b, cols)
		}
		return nil
	})
	s.add("vec.key_encode_ns_per_row", "", float64(d)/float64(largest.Len()))
	return err
}

// poolProbe times the admission pool's lease and release.
func poolProbe(ctx context.Context, s series) error {
	pool := exec.NewMemoryPool(poolBytes, 0)
	const n = 1000
	t := time.Now()
	for i := 0; i < n; i++ {
		l, err := pool.Lease(ctx, perQueryBytes, perQueryBytes/4)
		if err != nil {
			return err
		}
		l.Release()
	}
	s.add("exec.pool_lease_us", "", us(time.Since(t))/n)
	return nil
}

// recorded runs a read through the server's handler on a recorder: the
// server layer without the loopback connection.
func recorded(ctx context.Context, sys *system, text string) (time.Duration, int, error) {
	body, err := json.Marshal(server.QueryRequest{Session: sys.clients[0].Session(), SQL: text})
	if err != nil {
		return 0, 0, err
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	t := time.Now()
	sys.srv.Handler().ServeHTTP(rec, req)
	d := time.Since(t)
	if rec.Code != http.StatusOK {
		return 0, 0, fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body.String())
	}
	return d, rec.Body.Len(), nil
}

// engineQuery runs a read through the engine the way the workload's
// callers reach it: directly, or with the server's per-query budget.
func engineQuery(ctx context.Context, sys *system, text string) (*gbj.Result, error) {
	if sys.w.server {
		return sys.eng.QueryOptionsContext(ctx, text, &gbj.QueryOptions{MemoryBudget: perQueryBytes})
	}
	return sys.eng.QueryContext(ctx, text)
}

// replay runs the traced replay: each op through the stages, then through
// the real entry points. It stops after replayOps ops or when budget is
// spent, but not before every template has had two turns. Its writes use
// a caller index of their own, so their keys are new to the engine.
func replay(ctx context.Context, sys *system, st *stager, v *verifier, seed int64, budget time.Duration, s series) (ops int, err error) {
	tr := st.tr
	w := st.w
	seq := newSequence(w, seed, 0)
	minOps := 2 * len(w.queries)
	deadline := time.Now().Add(budget)
	writes := 0
	for ops < replayOps && (ops < minOps || time.Now().Before(deadline)) {
		idx := ops
		ops++
		if w.writeEvery > 0 && ops%replayWriteEvery == 0 {
			writes++
			d, err := st.write(idx, w.callers, writes)
			if err != nil {
				return ops, err
			}
			s.add("storage.insert_us", "", us(d))
			if err := sys.write(ctx, 0, insertSQL(w.callers, writes)); err != nil {
				return ops, err
			}
			continue
		}
		o := seq.next()
		text, id := o.text(), o.q.id
		sg, err := st.query(ctx, idx, text, true)
		if err != nil {
			return ops, fmt.Errorf("staging %s: %w", id, err)
		}
		s.add("sql.lex_us", id, us(sg.lex))
		s.add("sql.parse_us", id, us(sg.parse))
		s.addIf("sql.canon_us", id, sg.canon, time.Microsecond)
		s.addIf("core.plan_cache_get_us", id, sg.cacheGet, time.Microsecond)
		s.addIf("plancheck.recertify_us", id, sg.recertify, time.Microsecond)
		s.addIf("core.bind_us", id, sg.bind, time.Microsecond)
		s.addIf("core.optimize_us", id, sg.optimize, time.Microsecond)
		s.addIf("storage.snapshot_us", id, sg.snapshot, time.Microsecond)
		s.addIf("dist.compile_us", id, sg.distCompile, time.Microsecond)
		s.addIf("dist.run_ms", id, sg.distRun, time.Millisecond)
		s.add("gbj.convert_us", id, us(sg.convert))
		s.add("core.eager_chosen_share", id, share(sg.eager))
		p := profile(sg.plan, sg.col)
		for _, class := range selfClasses {
			s.add("exec."+class+"_self_ms", id, p.selfMS[class])
		}
		s.add("exec.join_input_rows", id, float64(p.joinInput))
		s.add("exec.group_input_rows", id, float64(p.groupInput))
		s.add("exec.state_kb", id, float64(p.stateBytes)/1024)
		s.add("vec.batches_per_query", id, float64(p.batches))
		if st.cluster != nil {
			s.add("dist.comm_kb_per_query", id, float64(sg.comm)/1024)
			s.add("dist.eager_ship_share", id, share(sg.shipped))
		} else {
			s.add("exec.run_ms", id, ms(sg.run))
			s.add("exec.rows_per_s", id, float64(p.scanned)/sg.run.Seconds())
		}

		t := time.Now()
		res, err := engineQuery(ctx, sys, text)
		if err != nil {
			return ops, err
		}
		query := tr.end(idx, "gbj.query", "", t)
		if !v.ok(o, res.Rows) {
			return ops, fmt.Errorf("engine answered %s wrongly", id)
		}
		s.add("gbj.query_ms", id, ms(query))
		s.add("gbj.glue_us", id, us(query-sg.total))
		s.add("trace.coverage", id, float64(sg.total)/float64(query))

		if !w.server {
			continue
		}
		handler, size, err := recorded(ctx, sys, text)
		if err != nil {
			return ops, err
		}
		s.add("server.handler_overhead_us", id, us(handler-query))
		s.add("server.bytes_per_response", id, float64(size))

		t = time.Now()
		rows, err := sys.read(ctx, 0, text)
		if err != nil {
			return ops, err
		}
		wire := tr.end(idx, "server.client", "", t)
		if !v.ok(o, rows) {
			return ops, fmt.Errorf("server answered %s wrongly", id)
		}
		s.add("server.wire_overhead_us", id, us(wire-handler))

		if len(res.Rows) > 0 {
			t = time.Now()
			err := json.NewEncoder(io.Discard).Encode(server.QueryResponse{Columns: res.Columns, Rows: res.Rows})
			if err != nil {
				return ops, err
			}
			s.add("server.encode_ms_per_krow", id, ms(time.Since(t))/(float64(len(res.Rows))/1000))
		}
	}
	return ops, nil
}

// runTraced measures one workload's per-layer metrics. A quarter of the
// time goes to an untraced window through the real path, for the counters
// only the running system has; half to the replay.
func runTraced(ctx context.Context, w *workload, seed int64, d time.Duration, outDir string) (res *runResult, err error) {
	s := series{}
	p, err := prepare(w, seed, true)
	if err != nil {
		return nil, err
	}
	s.add("storage.load_rows_per_s", "", float64(p.load.rows)/p.load.seconds)
	if err := storageProbes(p.shadow, s); err != nil {
		return nil, err
	}
	if err := poolProbe(ctx, s); err != nil {
		return nil, err
	}
	sys, err := setUp(ctx, p)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, sys.close(ctx)) }()

	cacheBefore, fallbacksBefore := sys.eng.PlanCacheStats(), sys.eng.Fallbacks()
	var admBefore server.AdmissionStats
	if w.server {
		if admBefore, err = admission(ctx, sys); err != nil {
			return nil, err
		}
	}
	m := measure(ctx, sys, p.verify, seed, d/4)
	cache := sys.eng.PlanCacheStats()
	hits, misses := cache.Hits-cacheBefore.Hits, cache.Misses-cacheBefore.Misses
	if hits+misses > 0 {
		s.add("core.plan_cache_hit_share", "", float64(hits)/float64(hits+misses))
	}
	if w.server {
		adm, err := admission(ctx, sys)
		if err != nil {
			return nil, err
		}
		degraded, rejected := adm.Degraded-admBefore.Degraded, adm.Rejected-admBefore.Rejected
		if asked := adm.Admitted - admBefore.Admitted + rejected; asked > 0 {
			s.add("server.degraded_share", "", float64(degraded)/float64(asked))
			s.add("server.rejected_share", "", float64(rejected)/float64(asked))
		}
	}
	s.add("write_p50_ms", "", median(m.writeMS))
	s.add("failed_share", "", float64(m.failed)/float64(m.attempted))
	s.add("trace.yardstick_slowdown", "", m.slow)

	tr := &tracer{t0: time.Now()}
	st := newStager(w, p.shadow, tr)
	if w.nodes > 1 {
		t := time.Now()
		if st.cluster, err = dist.NewCluster(p.shadow.store, w.nodes, w.nodes); err != nil {
			return nil, err
		}
		s.add("dist.cluster_build_ms", "", ms(time.Since(t)))
	}
	ops, err := replay(ctx, sys, st, p.verify, seed, d/2, s)
	if err != nil {
		return nil, err
	}
	s.add("trace.ops", "", float64(ops))
	s.add("gbj.fallbacks", "", float64(sys.eng.Fallbacks()-fallbacksBefore))
	if err := writeSpans(outDir, w.name, tr.spans); err != nil {
		return nil, err
	}
	for _, q := range w.queries {
		if err := st.perTemplate(ctx, q, s); err != nil {
			return nil, fmt.Errorf("template %s: %w", q.id, err)
		}
	}

	res = &runResult{
		workload:  w.name,
		metrics:   make(map[string]float64, len(perLayer)),
		attempted: m.attempted + ops,
		failed:    m.failed,
		reads:     m.readCount(),
		slow:      m.slow,
	}
	for _, pm := range perLayer {
		res.metrics[pm.name] = s.value(pm)
	}
	return res, nil
}

// admission reads the server's admission counters over the wire.
func admission(ctx context.Context, sys *system) (server.AdmissionStats, error) {
	st, err := sys.clients[0].Stats(ctx)
	if err != nil {
		return server.AdmissionStats{}, err
	}
	return st.Admission, nil
}

// writeSpans writes the replay's spans to <dir>/trace-<workload>.json.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), buf, 0o644)
}
