package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/algebra"
	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plancheck"
	"repro/internal/sql"
	"repro/internal/storage"
)

// Mode selects how the optimizer uses the transformation.
type Mode uint8

// Optimizer modes. On a query over an aggregated view or derived table
// (Section 8), ModeNever runs the nested plan as written — materialize the
// view, then join — and ModeCost and ModeAlways both run the cheaper of the
// nested and the flat plan.
const (
	// ModeCost applies the transformation when it is valid AND the cost
	// model prefers the transformed plan (the paper's Section 7: validity
	// does not imply profitability).
	ModeCost Mode = iota
	// ModeAlways applies the transformation whenever it is valid.
	ModeAlways
	// ModeNever always uses the standard plan.
	ModeNever
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeCost:
		return "cost"
	case ModeAlways:
		return "always"
	case ModeNever:
		return "never"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Optimizer decides between the standard plan (group after join) and the
// transformed plan (group before join).
type Optimizer struct {
	planner *Planner
	stats   Stats
	Mode    Mode
	// Parallelism is the executor worker count plans will run with; the
	// cost model uses it to divide partitionable work and charge
	// partial-aggregate merge costs. 0 or 1 costs plans serially.
	Parallelism int
	// Vectorize is the executor's columnar batch mode; the cost model
	// scales partitionable per-row work down by a uniform factor for it on
	// a single-site plan (CostModel.Vectorize).
	Vectorize bool
	// Nodes is the simulated cluster size plans will run on; with more
	// than one node the cost model adds a per-byte communication term for
	// the exchanges distributed compilation will insert, so the
	// standard-vs-transformed choice accounts for what each plan ships.
	// 0 or 1 costs plans as single-site.
	Nodes int
	// DistStrategy is the distributed grouping strategy the cost model
	// compiles every plan for the cluster under (Runnable.Dist).
	DistStrategy dist.Strategy
	// DisablePredicateExpansion turns off the Section 6.3 predicate
	// expansion (deriving constant predicates for R1's join columns from
	// equality chains); on by default, off only for ablation studies.
	DisablePredicateExpansion bool
	// CheckPlans statically verifies every plan the optimizer emits with
	// package plancheck before returning it: well-formedness for all
	// plans, plus a TestFD certificate covering the eager aggregation of
	// a transformed plan, re-derived from the catalog. A violation turns
	// into an optimizer error. The engine sets it in gbj.New, so no plan
	// runs unverified there; it stays a field because the model checker and
	// the certifier gauntlets plan unverified on purpose, to show what the
	// other checks catch on their own.
	CheckPlans bool
}

// NewOptimizer builds an optimizer over the store with live statistics.
func NewOptimizer(store *storage.Store) *Optimizer {
	return &Optimizer{
		planner: NewPlanner(store),
		stats:   NewStoreStats(store),
	}
}

// Planner exposes the underlying planner.
func (o *Optimizer) Planner() *Planner { return o.planner }

// Report documents an optimization decision for EXPLAIN output.
type Report struct {
	// Shape is the Section 3 normalization; nil when not applicable.
	Shape *Shape
	// Applicable is false when the query is outside the transformable
	// class (with the reason in WhyNot).
	Applicable bool
	// Decision is the TestFD outcome (zero value when not applicable).
	Decision Decision
	// WhyNot explains why the transformation was not applied.
	WhyNot string
	// ExpandedPredicates are the conjuncts derived by predicate
	// expansion and added to C1 (empty when disabled or nothing was
	// derivable).
	ExpandedPredicates []expr.Expr
	// SubstitutionNote documents a Section 9 column-substitution /
	// partition-override rescue, when the default partition was not
	// transformable but an equivalent rewriting was.
	SubstitutionNote string
	// Transformed reports whether the chosen plan is the transformed one.
	Transformed bool
	// StandardCost and TransformedCost are the cost estimates (the
	// latter only when the transformation is valid).
	StandardCost    PlanCost
	TransformedCost PlanCost
	// Standard and Alternative are both plans: Standard is always the
	// group-after-join plan; Alternative is the group-before-join plan
	// when valid, else nil.
	Standard    algebra.Node
	Alternative algebra.Node
}

// Chosen returns the plan the optimizer selected.
func (r *Report) Chosen() algebra.Node {
	if r.Transformed {
		return r.Alternative
	}
	return r.Standard
}

// Certificates builds the plancheck certificates witnessing the Main
// Theorem conditions for the transformed plan's eager aggregations. The
// TestFD decision proves FD1 and FD2 together, so both flags carry
// Decision.OK; the certified grouping columns are the shape's GA1+.
func (r *Report) Certificates() []*plancheck.Certificate {
	if r.Alternative == nil || r.Shape == nil {
		return nil
	}
	cols := r.Shape.GA1Plus
	if TestHooks.TamperCertCols && len(cols) > 0 {
		cols = cols[:len(cols)-1] // seeded bug: certificate licenses the wrong GA1+
	}
	var certs []*plancheck.Certificate
	for _, g := range plancheck.EagerGroups(r.Alternative) {
		certs = append(certs, &plancheck.Certificate{
			Group:     g,
			FD1:       r.Decision.OK,
			FD2:       r.Decision.OK,
			GroupCols: cols,
			R2Tables:  r.Shape.R2,
			Origin:    "TestFD",
		})
	}
	return certs
}

// verifyReport collects the report's Certificates once and, when
// CheckPlans is set, runs the static plan verifier over the report's plans:
// the standard plan must be well-formed, and the transformed plan must
// additionally carry a valid eager-aggregation certificate.
func (o *Optimizer) verifyReport(r *Report) ([]*plancheck.Certificate, error) {
	certs := r.Certificates()
	if err := o.verifyPlain(r.Standard, "standard"); err != nil {
		return nil, err
	}
	if r.Alternative != nil && o.CheckPlans {
		opts := &plancheck.Options{
			Certificates:     certs,
			RequireEagerCert: true,
		}
		if err := plancheck.Verify(r.Alternative, opts); err != nil {
			return nil, fmt.Errorf("core: transformed plan failed verification: %w", err)
		}
		// Independent cross-check: re-derive the Main Theorem conditions
		// from the catalog and the plan pair alone, and compare against
		// the claims the prover just attached. A refuted claim means the
		// prover and the certifier disagree — never ship that plan.
		cat := plancheck.Catalog(o.planner.store.Catalog())
		if vs := plancheck.CrossCheck(r.Standard, r.Alternative, cat, certs); len(vs) > 0 {
			msgs := make([]string, len(vs))
			for i, v := range vs {
				msgs[i] = v.Error()
			}
			return nil, fmt.Errorf("core: certificate cross-check failed:\n  %s", strings.Join(msgs, "\n  "))
		}
	}
	return certs, nil
}

// verifyPlain checks a plan with no eager aggregation for well-formedness
// when CheckPlans is set; what names the plan in the error.
func (o *Optimizer) verifyPlain(plan algebra.Node, what string) error {
	if !o.CheckPlans {
		return nil
	}
	if err := plancheck.Verify(plan, nil); err != nil {
		return fmt.Errorf("core: %s plan failed verification: %w", what, err)
	}
	return nil
}

// costModel prices a bound query for the engine the plans will run on: its
// worker count, its batch mode and its cluster size. Forward and reverse
// choices both read it, so neither prices a different engine.
func (o *Optimizer) costModel(b *BoundQuery) *CostModel {
	model := NewCostModel(o.stats, b)
	model.Parallelism = o.Parallelism
	model.Vectorize = o.Vectorize
	model.Nodes = o.Nodes
	model.Strategy = o.DistStrategy
	return model
}

// Optimize plans a query, deciding whether to perform the group-by before
// the join.
func (o *Optimizer) Optimize(q *sql.SelectStmt) (*Report, error) {
	b, err := o.planner.Bind(q)
	if err != nil {
		return nil, err
	}
	return o.OptimizeBound(b)
}

// OptimizeBound runs the forward decision pipeline on a bound query:
// normalize (Section 3), TestFD (Section 6.3), transform (Main Theorem /
// Theorem 2), choose by cost (Section 7). With CheckPlans set, both emitted
// plans are statically verified before the report is returned.
func (o *Optimizer) OptimizeBound(b *BoundQuery) (*Report, error) {
	r, err := o.optimizeBound(b)
	if err != nil {
		return nil, err
	}
	if _, err := o.verifyReport(r); err != nil {
		return nil, err
	}
	return r, nil
}

// Choice is the one plan decision for a query: the plan that runs, the lazy
// plan a budget abort falls back to, the certificates that license the plan,
// and the account EXPLAIN prints. The engine runs it and EXPLAIN renders it,
// so the plan EXPLAIN marks as chosen is the plan that runs. The plan cache
// keeps it as it is: every run of a cached choice shares its runnables.
type Choice struct {
	// Plan is the chosen plan.
	Plan *Runnable
	// Fallback is the lazy plan behind a group-before-join choice — the
	// standard plan behind a transformed one, the flat plan behind a nested
	// view — nil when Plan is already the lazy shape. Eager aggregation
	// builds its group table before the join filters rows, so it is the
	// shape that can blow a memory budget the lazy plan fits; keeping the
	// lazy plan at hand makes degradation a re-execution, not a
	// re-optimization.
	Fallback *Runnable
	// Certs are the TestFD certificates covering Plan's eager aggregations.
	Certs []*plancheck.Certificate
	// Tables are the base tables the choice read, sorted, each once: the
	// query's bind collects them (BoundQuery.reads) — those Plan and Fallback
	// scan, views and derived tables expanded, and those of the subqueries
	// planning ran. Nothing else of the data was read, so a write to another
	// table leaves the choice as it would be made again.
	Tables []string

	// The report of the rule that decided: reverse when the Section 8
	// analysis applied, else forward. Its costs keep no cluster plan: the
	// runnables took those they run, and no run executes the others.
	forward *Report
	reverse *ReverseReport
}

// Runnable is one plan a choice can run, with everything a run of it reads
// besides its data and settings. All of it is made with the choice and is
// read-only after: executions never mutate plan nodes, shapes or cluster
// plans, so every run of a cached choice, on any goroutine, shares one.
type Runnable struct {
	// Plan is the logical plan and Ann its per-node estimates, keyed by the
	// node pointers the executor runs — which is what lets an analysis pair
	// estimates with measured cardinalities.
	Plan algebra.Node
	Ann  algebra.Annotations
	// Shape is the plan-only half of Plan's compilation (exec.NewShape): a
	// local run binds it and compiles nothing.
	Shape *exec.Shape
	// Columns are the names of the result's columns, a local run's and a
	// cluster run's alike.
	Columns []string
	// Dist is Plan as the cost model compiled and priced it for the
	// cluster, verified; nil single-site.
	Dist *dist.Plan
}

// Choose makes the one plan decision. A query over a view or a derived
// table gets the Section 8 reverse analysis first, unless the mode is
// ModeNever; every other query, and one the reverse analysis does not apply
// to, gets the forward rule with its Section 9 rescue. With CheckPlans set,
// every plan the choice carries has been verified, its cluster plans included.
func (o *Optimizer) Choose(q *sql.SelectStmt) (*Choice, error) {
	b, err := o.planner.Bind(q)
	if err != nil {
		return nil, err
	}
	c, err := o.choose(b)
	if err != nil {
		return nil, err
	}
	c.Tables = slices.Clone(b.reads) // each once already
	slices.Sort(c.Tables)
	return c, nil
}

// choose is Choose on a bound query.
func (o *Optimizer) choose(b *BoundQuery) (*Choice, error) {
	if o.Mode != ModeNever && slices.ContainsFunc(b.tables, func(bt boundTable) bool { return bt.view != nil }) {
		rr, err := o.reverse(b)
		if err != nil {
			return nil, err
		}
		if rr.Applicable {
			if rr.UseFlat {
				return o.choice(&Choice{reverse: rr}, rr.FlatPlan, &rr.FlatCost, nil, &rr.NestedCost)
			}
			// The nested plan materializes the aggregated view — a
			// group-before-join; the flat plan, when proven, is its lazy
			// equivalent.
			return o.choice(&Choice{reverse: rr}, rr.Nested, &rr.NestedCost, rr.FlatPlan, &rr.FlatCost)
		}
	}
	r, err := o.optimizeBound(b)
	if err != nil {
		return nil, err
	}
	certs, err := o.verifyReport(r)
	if err != nil {
		return nil, err
	}
	if !r.Transformed {
		return o.choice(&Choice{forward: r}, r.Standard, &r.StandardCost, nil, &r.TransformedCost)
	}
	return o.choice(&Choice{Certs: certs, forward: r}, r.Alternative, &r.TransformedCost, r.Standard, &r.StandardCost)
}

// choice gives c the runnables of plan, priced as pc, and of fallback (none
// when it is nil), priced as fc — fc is the report's other cost either way.
// Both costs give up their cluster plans: the runnables took those they run,
// and the plan not chosen runs on no rung.
func (o *Optimizer) choice(c *Choice, plan algebra.Node, pc *PlanCost, fallback algebra.Node, fc *PlanCost) (*Choice, error) {
	var err error
	if c.Plan, err = o.runnable(plan, pc, c.Certs); err != nil {
		return nil, err
	}
	if fallback != nil {
		if c.Fallback, err = o.runnable(fallback, fc, nil); err != nil {
			return nil, err
		}
	}
	fc.dist = nil
	return c, nil
}

// runnable makes plan's Runnable: its estimates and cluster plan from pc,
// which gives the cluster plan up, its shape and its column names. With
// CheckPlans set the cluster plan is verified first, under certs translated
// onto its eager aggregations. A plan the cluster compiler rejected fails
// with the compiler's error.
func (o *Optimizer) runnable(plan algebra.Node, pc *PlanCost, certs []*plancheck.Certificate) (*Runnable, error) {
	dp := pc.dist
	pc.dist = nil
	if pc.distErr != nil {
		return nil, pc.distErr
	}
	if dp != nil && o.CheckPlans {
		if err := plancheck.Verify(dp.Root, &plancheck.Options{Certificates: translateCerts(dp, certs)}); err != nil {
			return nil, fmt.Errorf("core: distributed plan failed verification: %w", err)
		}
	}
	shape, err := exec.NewShape(plan)
	if err != nil {
		return nil, err
	}
	var cols []string
	for _, d := range plan.Schema() {
		cols = append(cols, d.ID.Name)
	}
	return &Runnable{Plan: plan, Ann: pc.Ann, Shape: shape, Columns: cols, Dist: dp}, nil
}

// translateCerts re-anchors TestFD certificates from logical GroupBy nodes
// onto the distributed plan's eager aggregations derived from them, so the
// eager-cert rule holds on the compiled tree too.
func translateCerts(dp *dist.Plan, certs []*plancheck.Certificate) []*plancheck.Certificate {
	if len(certs) == 0 {
		return nil
	}
	var out []*plancheck.Certificate
	for _, g := range plancheck.EagerGroups(dp.Root) {
		origin := dp.Origins[g]
		for _, cert := range certs {
			if cert.Group == origin {
				cc := *cert
				cc.Group = g
				out = append(out, &cc)
			}
		}
	}
	return out
}

// DistAnn is Ann moved onto the cluster plan's nodes derived from the
// logical ones — scaled where the compiler priced a node at other than its
// origin's cardinality (Dist.EstRows: per-node partial aggregates,
// broadcasts), since the measured count it calibrates against is summed
// over the sites. Synthesized nodes whose origin has no estimate (or no
// origin) calibrate against the zero estimate, surfacing as q-error like any
// other unestimated operator.
func (r *Runnable) DistAnn() algebra.Annotations {
	out := make(algebra.Annotations, len(r.Dist.Origins))
	for n, origin := range r.Dist.Origins {
		if a, ok := r.Ann[origin]; ok {
			if rows, ok := r.Dist.EstRows[n]; ok {
				a.Rows = int64(rows)
			}
			out[n] = a
		}
	}
	return out
}

// Explain renders the account of the rule that decided: the reverse report
// when the Section 8 analysis applied, else the forward report.
func (c *Choice) Explain() string {
	if c.reverse != nil {
		return c.reverse.Explain()
	}
	return c.forward.Explain()
}

func (o *Optimizer) optimizeBound(b *BoundQuery) (*Report, error) {
	standard, err := o.planner.PlanStandard(b)
	if err != nil {
		return nil, err
	}
	r := &Report{Standard: standard}
	model := o.costModel(b)
	r.StandardCost = model.Estimate(standard)

	if o.Mode == ModeNever {
		r.WhyNot = "optimizer mode: never transform"
		return r, nil
	}

	var defaultR1 map[string]bool
	shape, err := Normalize(b, nil)
	switch {
	case err == nil:
		defaultR1 = shape.r1Set
		r.Shape = shape
		r.Applicable = true
		r.Decision = TestFD(shape)
		if TestHooks.ForceTransform && !r.Decision.OK {
			// Seeded bug: push the group-by past a join whose functional
			// dependencies were NOT proven.
			r.Decision.OK = true
			r.Decision.Reason = ""
		}
		if !r.Decision.OK {
			r.WhyNot = "TestFD: " + r.Decision.Reason
		}
	default:
		na, ok := err.(*ErrNotApplicable)
		if !ok {
			return nil, err
		}
		r.WhyNot = na.Why
		shape = nil
	}

	// Section 9 rescue: when the default partition fails normalization or
	// TestFD, try column-substituted partitions (the paper: "all possible
	// partitions of the tables can be performed and the resulting queries
	// can all be tested"). Only worth attempting for failures the
	// enumeration can fix — not for structural exclusions like HAVING.
	if shape == nil || !r.Decision.OK {
		if len(b.GroupBy) > 0 {
			for _, cand := range substitutionCandidates(b, defaultR1) {
				cshape, err := Normalize(cand.bound, cand.r1)
				if err != nil {
					continue
				}
				dec := TestFD(cshape)
				if !dec.OK {
					continue
				}
				shape = cshape
				r.Shape = cshape
				r.Applicable = true
				r.Decision = dec
				r.SubstitutionNote = cand.note
				r.WhyNot = ""
				break
			}
		}
		if shape == nil || !r.Decision.OK {
			return r, nil
		}
	}

	if !o.DisablePredicateExpansion {
		r.ExpandedPredicates = ExpandPredicates(shape)
	}
	transformed, err := o.planner.PlanTransformed(shape)
	if err != nil {
		return nil, err
	}
	r.Alternative = transformed
	r.TransformedCost = model.Estimate(transformed)

	switch o.Mode {
	case ModeAlways:
		r.Transformed = true
	default:
		if r.TransformedCost.Total < r.StandardCost.Total {
			r.Transformed = true
		} else {
			r.WhyNot = fmt.Sprintf("valid but not chosen: estimated cost %.0f (transformed) >= %.0f (standard)",
				r.TransformedCost.Total, r.StandardCost.Total)
		}
	}
	return r, nil
}

// Explain renders the full decision: normalization, TestFD trace, both
// plans with estimated cardinalities, and the choice.
func (r *Report) Explain() string {
	var sb strings.Builder
	sb.WriteString("=== Standard plan (group-by after join) ===\n")
	sb.WriteString(algebra.Format(r.Standard, r.StandardCost.Ann))
	fmt.Fprintf(&sb, "estimated cost: %.0f\n\n", r.StandardCost.Total)

	if !r.Applicable {
		fmt.Fprintf(&sb, "transformation not applicable: %s\n", r.WhyNot)
		return sb.String()
	}
	sb.WriteString("=== Normalization (paper Section 3) ===\n")
	sb.WriteString(r.Shape.String())
	sb.WriteString("\n\n=== TestFD (paper Section 6.3) ===\n")
	sb.WriteString(r.Decision.TraceString())
	if !r.Decision.OK {
		fmt.Fprintf(&sb, "\nanswer: NO (%s)\n", r.Decision.Reason)
		return sb.String()
	}
	sb.WriteString("\nanswer: YES — FD1 and FD2 hold in the join result\n")
	if r.SubstitutionNote != "" {
		fmt.Fprintf(&sb, "via Section 9 substitution: %s\n", r.SubstitutionNote)
	}
	if len(r.ExpandedPredicates) > 0 {
		preds := make([]string, len(r.ExpandedPredicates))
		for i, p := range r.ExpandedPredicates {
			preds[i] = p.String()
		}
		fmt.Fprintf(&sb, "predicate expansion added to C1: %s\n", strings.Join(preds, " AND "))
	}

	sb.WriteString("\n=== Transformed plan (group-by before join) ===\n")
	sb.WriteString(algebra.Format(r.Alternative, r.TransformedCost.Ann))
	fmt.Fprintf(&sb, "estimated cost: %.0f\n\n", r.TransformedCost.Total)
	if r.Transformed {
		sb.WriteString("chosen: transformed plan\n")
	} else {
		fmt.Fprintf(&sb, "chosen: standard plan (%s)\n", r.WhyNot)
	}
	return sb.String()
}
