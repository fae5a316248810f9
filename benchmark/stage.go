package main

// The staged query path: a copy of what gbj.Engine does for one query —
// parse, canonicalize, plan-cache lookup, recertify or bind+optimize,
// snapshot, execute — written here against the layers' public functions
// over the shadow store, with one span around each layer call. Spans are
// recorded from the benchmark's own files; spans inside the program are a
// later change.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plancheck"
	"repro/internal/sql"
	"repro/internal/value"
)

// span is one timed call into a layer. Spans of one op share its index;
// times are nanoseconds since the replay began.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory. With off set it times but records nothing:
// that is the untraced pass trace.overhead_share compares against.
type tracer struct {
	t0    time.Time
	spans []span
	off   bool
}

// end closes a span begun at start and returns its duration.
func (t *tracer) end(op int, name, parent string, start time.Time) time.Duration {
	now := time.Now()
	if !t.off {
		t.spans = append(t.spans, span{
			Op: op, Name: name, Parent: parent,
			Start: int64(start.Sub(t.t0)), End: int64(now.Sub(t.t0)),
		})
	}
	return now.Sub(start)
}

// choice is a plan selection, what the engine keeps in its plan cache.
type choice struct {
	report *core.Report
	certs  []*plancheck.Certificate
}

// stager is the staged query path over the shadow store, configured like
// the workload's engine.
type stager struct {
	w       *workload
	sh      *shadow
	cache   *core.PlanCache
	cluster *dist.Cluster
	tr      *tracer
}

func newStager(w *workload, sh *shadow, tr *tracer) *stager {
	st := &stager{w: w, sh: sh, tr: tr}
	sh.opt.Parallelism = w.parallelism
	sh.opt.Vectorize = w.vectorize
	sh.opt.Nodes = w.nodes
	if w.server {
		st.cache = core.NewPlanCache(planCacheSize, nil)
	}
	return st
}

// staged is what one op's pass through the stages measured. A stage that
// did not run (bind on a cache hit, recertify on a miss) stays 0.
type staged struct {
	lex, parse, canon, cacheGet, recertify time.Duration
	bind, optimize, snapshot, run          time.Duration
	distCompile, distRun, convert          time.Duration
	// total is the sum of the stages on the engine's path (lex is timed
	// on its own, outside it: ParseQuery lexes again).
	total   time.Duration
	eager   bool
	shipped bool
	plan    algebra.Node
	col     *obs.Collector
	comm    int64
}

// groupStrategy mirrors the engine's physical grouping choice: sort-based
// grouping when an ascending ORDER BY on a prefix of the grouping columns
// sits on top, hashing otherwise.
func groupStrategy(plan algebra.Node) exec.GroupStrategy {
	if l, ok := plan.(*algebra.Limit); ok {
		plan = l.Input
	}
	s, ok := plan.(*algebra.Sort)
	if !ok {
		return exec.GroupAuto
	}
	var group *algebra.GroupBy
	algebra.Walk(s, func(n algebra.Node) {
		if g, ok := n.(*algebra.GroupBy); ok && group == nil {
			group = g
		}
	})
	if group == nil || len(s.Keys) > len(group.GroupCols) {
		return exec.GroupAuto
	}
	for i, k := range s.Keys {
		if k.Desc || group.GroupCols[i].Name != k.Col.Name {
			return exec.GroupAuto
		}
	}
	return exec.GroupSort
}

// execOptions are the executor settings the workload's engine runs with.
func (st *stager) execOptions(ctx context.Context, plan algebra.Node, col *obs.Collector) *exec.Options {
	o := &exec.Options{
		Group:       groupStrategy(plan),
		Parallelism: st.w.parallelism,
		Vectorize:   st.w.vectorize,
		Context:     ctx,
		Metrics:     col,
	}
	if st.w.server {
		// The admission controller leases each query this budget.
		o.MemoryBudget = perQueryBytes
	}
	return o
}

// query stages one read. collect attaches a metrics collector to the
// execution, which the operator self times need.
func (st *stager) query(ctx context.Context, opIdx int, text string, collect bool) (*staged, error) {
	const root = "staged.query"
	tr := st.tr
	s := &staged{}
	begin := time.Now()

	t := begin
	if _, err := sql.Lex(text); err != nil {
		return nil, err
	}
	s.lex = tr.end(opIdx, "sql.lex", root, t)

	t = time.Now()
	q, err := sql.ParseQuery(text)
	if err != nil {
		return nil, err
	}
	s.parse = tr.end(opIdx, "sql.parse", root, t)

	var ch *choice
	var key string
	if st.cache != nil {
		t = time.Now()
		key = fmt.Sprintf("%s|e%d", sql.Canonical(q), st.sh.store.Epoch())
		s.canon = tr.end(opIdx, "sql.canon", root, t)

		t = time.Now()
		v, hit := st.cache.Get(key)
		s.cacheGet = tr.end(opIdx, "core.plan_cache_get", root, t)
		if hit {
			ch = v.(*choice)
			if len(ch.certs) > 0 {
				t = time.Now()
				cat := plancheck.Catalog(st.sh.store.Catalog())
				vs := plancheck.CrossCheck(ch.report.Standard, ch.report.Alternative, cat, ch.certs)
				s.recertify = tr.end(opIdx, "plancheck.recertify", root, t)
				if len(vs) > 0 {
					return nil, fmt.Errorf("cached certificate refuted: %w", vs[0])
				}
			}
		}
	}
	if ch == nil {
		t = time.Now()
		b, err := st.sh.opt.Planner().Bind(q)
		if err != nil {
			return nil, err
		}
		s.bind = tr.end(opIdx, "core.bind", root, t)

		t = time.Now()
		r, err := st.sh.opt.OptimizeBound(b)
		if err != nil {
			return nil, err
		}
		s.optimize = tr.end(opIdx, "core.optimize", root, t)
		ch = &choice{report: r}
		if r.Transformed {
			ch.certs = r.Certificates()
		}
		if st.cache != nil {
			st.cache.Put(key, ch)
		}
	}
	s.eager = ch.report.Transformed
	s.plan = ch.report.Chosen()
	if collect {
		s.col = obs.NewCollector()
	}

	var res *exec.Result
	if st.cluster != nil {
		t = time.Now()
		ann := ch.report.StandardCost.Ann
		if s.eager {
			ann = ch.report.TransformedCost.Ann
		}
		dp, err := dist.Compile(s.plan, dist.Config{
			Nodes: st.w.nodes,
			Rows: func(n algebra.Node) float64 {
				if a, ok := ann[n]; ok {
					return float64(a.Rows)
				}
				return -1
			},
		})
		if err != nil {
			return nil, err
		}
		s.distCompile = tr.end(opIdx, "dist.compile", root, t)
		s.shipped = dp.EagerGroupBys() > 0
		s.plan = dp.Root

		before := st.cluster.TotalBytes()
		t = time.Now()
		res, err = st.cluster.Run(dp, &exec.Options{Group: exec.GroupHash, Context: ctx, Metrics: s.col})
		if err != nil {
			return nil, err
		}
		s.distRun = tr.end(opIdx, "dist.run", root, t)
		s.comm = st.cluster.TotalBytes() - before
	} else {
		t = time.Now()
		snap := st.sh.store.Snapshot()
		s.snapshot = tr.end(opIdx, "storage.snapshot", root, t)

		t = time.Now()
		res, err = exec.Run(s.plan, snap, st.execOptions(ctx, s.plan, s.col))
		if err != nil {
			return nil, err
		}
		s.run = tr.end(opIdx, "exec.run", root, t)
	}
	t = time.Now()
	convert(res.Rows)
	s.convert = tr.end(opIdx, "gbj.convert", root, t)
	tr.end(opIdx, root, "", begin)
	s.total = s.parse + s.canon + s.cacheGet + s.recertify + s.bind + s.optimize +
		s.snapshot + s.run + s.distCompile + s.distRun + s.convert
	return s, nil
}

// convert mirrors the engine's last step, which no public function
// exposes on its own: boxing the executor's rows into Go-native values.
func convert(rows []value.Row) [][]any {
	out := make([][]any, 0, len(rows))
	for _, row := range rows {
		conv := make([]any, len(row))
		for i, v := range row {
			switch v.Kind() {
			case value.KindInt:
				conv[i] = v.Int()
			case value.KindFloat:
				conv[i] = v.Float()
			case value.KindString:
				conv[i] = v.Str()
			case value.KindBool:
				conv[i] = v.Bool()
			}
		}
		out = append(out, conv)
	}
	return out
}

// write stages one INSERT: the row goes into the shadow store, and the
// plan cache is emptied as the engine's is.
func (st *stager) write(opIdx, caller, n int) (time.Duration, error) {
	id := kvID(caller, n)
	row := kvRow(id, id%kvGroups)
	t := time.Now()
	if err := st.sh.store.Insert("kv", row); err != nil {
		return 0, err
	}
	d := st.tr.end(opIdx, "storage.insert", "", t)
	if st.cache != nil {
		st.cache.Clear()
	}
	return d, nil
}
