// Distributed execution. The runner walks the compiled plan bottom-up,
// evaluating each exchange's input fragment and moving its rows through
// the cluster's links, then executing the consuming fragment through the
// ordinary executor — one governed exec.Run per (fragment, node), each bound
// to its own site's shard rows and delivered partitions (sources), so the
// compiled plan is read-only while it runs. A partitioned fragment's sites
// run at once, on the executor's own worker pool (sitesAtOnce says how
// many); everything that orders the result stays with the runner's own
// goroutine: each site's output is kept under its node index, gathered
// output concatenates in node order, shuffled output receives senders in
// node order, and every shipment — with its (epoch, seq) tag and its link
// ordinal — is made after the sites have joined. A given cluster size
// therefore produces the same rows in the same order, ships the same bytes
// and counts the same recoveries however many sites ran together.
//
// Every cross-node transfer is one logical *shipment* carrying an
// (epoch, seq) tag. With a Recovery policy installed the runner retries
// failed shipments under an exponential clock-driven backoff, dedups
// redeliveries at the receiver (a shipment is merged at most once — the
// property that keeps retried partial-aggregate states from double
// counting), trips a per-node circuit breaker that fails a dead node's
// shard ownership over to a survivor and re-executes its fragment there,
// and reports exhaustion as a typed *UnavailableError the engine turns
// into distributed→local degradation. Retries, dropped redeliveries and
// failovers never change the produced rows: recovery is invisible except
// in the counters.
package dist

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plancheck"
	"repro/internal/value"
)

// placed is a fragment result with its placement. runAt, when non-nil,
// re-executes the fragment for one partition index — the failover path
// uses it to recompute a dead node's output at the surviving owner of its
// shards.
type placed struct {
	part  bool          // true: one row set per node
	repl  bool          // true: parts are the same full set on every node
	parts [][]value.Row // when part
	rows  []value.Row   // when !part (coordinator-resident)
	runAt func(node int) ([]value.Row, error)
}

// Run executes a compiled plan on the cluster with fault tolerance off:
// one attempt per shipment, fail-fast. opts carries the session's
// execution settings — parallelism, params, context, memory budget, fault
// injector, metrics collector — and every fragment run gets a copy of it
// (plus its site's Sources); the memory budget therefore governs each
// fragment execution individually (per node), which mirrors a real cluster
// where every site has its own memory. A panic anywhere in the distributed
// runtime — a site's fragment run included, whichever goroutine carried it —
// is contained into one typed *exec.ExecPanicError, same as the single-node
// executor, with every site worker joined before Run returns.
func (c *Cluster) Run(p *Plan, opts *exec.Options) (*exec.Result, error) {
	return c.RunRecover(p, opts, nil)
}

// RunRecover executes a compiled plan under the given fault-tolerance
// policy (nil disables recovery, making it identical to Run). Under a
// policy, bounded link-fault schedules — at most LinkRetries faults per
// shipment — complete with exactly the rows a fault-free run produces;
// unbounded schedules surface a typed *UnavailableError.
func (c *Cluster) RunRecover(p *Plan, opts *exec.Options, rec *Recovery) (res *exec.Result, err error) {
	if opts == nil {
		opts = &exec.Options{}
	}
	if p.Nodes != len(c.nodes) {
		return nil, fmt.Errorf("dist: plan compiled for %d nodes, cluster has %d", p.Nodes, len(c.nodes))
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &exec.ExecPanicError{
				Op:     "dist: " + p.Root.Describe(),
				Worker: -1,
				Value:  r,
				Stack:  debug.Stack(),
			}
		}
	}()
	r := &runner{
		cl:     c,
		opts:   opts,
		plan:   p,
		sites:  sitesAtOnce(len(c.nodes), opts, rec),
		health: newHealth(len(c.nodes)),
		inbox:  make(map[int64]bool),
	}
	if rec != nil {
		r.rec, r.breaker = *rec, true
		r.rec.LinkRetries = max(rec.LinkRetries, 0)
	}
	defer r.flushStats()
	out, err := r.eval(p.Root)
	if err != nil {
		return nil, err
	}
	if out.part {
		return nil, fmt.Errorf("dist: plan root %s is partitioned; compile must gather it", p.Root.Describe())
	}
	if opts.Metrics != nil {
		if x, ok := p.Root.(*Exchange); ok {
			// An exchange's rows out are counted by the fragment that reads
			// it; the root's reader is the caller.
			opts.Metrics.Node(x).RowsOut.Add(int64(len(out.rows)))
		}
		// Once, after every site of every fragment (failover re-runs
		// included) has added its rows: what the analysis reads does not
		// depend on which site finished last.
		obs.FillRowsIn(opts.Metrics, p.Root, algebra.Node.Children)
	}
	return &exec.Result{Schema: p.Root.Schema(), Rows: out.rows}, nil
}

// sitesAtOnce is the one rule for how many of a partitioned fragment's
// per-node runs execute at the same time: min(nodes, GOMAXPROCS). The sites
// of a cluster work independently — that is the premise of the paper's
// Section 7 — and share nothing here but a read-only plan and read-only
// shards; beyond the processor count more goroutines would only queue. It
// is 1 — the same loop, on the caller's goroutine — when the run
//
//   - is Serial (rec.Serial: the engine's QueryOptions.Serial, which
//     admission's degraded grant sets to shed a query's concurrency; the
//     cluster's is shed with the rest);
//   - has a MemoryBudget: the budget is one lease from a process-wide pool,
//     and every fragment run is entitled to all of it under a governor of
//     its own, so W sites at once would hold W leases' worth of state;
//   - carries a fault injector: its schedules are ordinals over one
//     sequence of row and link events, and sites running together would
//     decide by scheduling which event an ordinal lands on.
//
// Nothing else enters, and there is no option: rows, row order, link bytes
// and recovery counters are the same for any answer (see the file comment),
// so the answer is only ever a matter of time. Each fragment run keeps
// Options.Parallelism as given.
func sitesAtOnce(nodes int, opts *exec.Options, rec *Recovery) int {
	if (rec != nil && rec.Serial) || opts.MemoryBudget > 0 || opts.Faults != nil {
		return 1
	}
	return min(nodes, runtime.GOMAXPROCS(0))
}

type runner struct {
	cl     *Cluster
	opts   *exec.Options
	plan   *Plan
	rec    Recovery // the zero value under a nil policy
	sites  int      // sitesAtOnce, fixed for the run
	health *health

	// breaker is whether a policy was given: only then may failOver
	// declare a node dead.
	breaker bool

	// inbox is the receiver side of the shipment protocol: seq tags whose
	// payload has been accepted. A second delivery of an accepted tag is
	// a redelivery and is dropped.
	inbox   map[int64]bool
	nextSeq int64

	// waited accumulates virtual backoff time, accounted against the
	// context deadline without any real sleep.
	waited time.Duration

	retries     int64
	redelivered int64
	failovers   int64
}

// flushStats publishes the run's recovery counters into the metrics
// collector and the engine-lifetime aggregate; deferred so failed runs
// report too.
func (r *runner) flushStats() {
	if r.opts.Metrics != nil && r.retries+r.redelivered+r.failovers > 0 {
		r.opts.Metrics.AddRecovery(r.retries, r.redelivered, r.failovers)
	}
	if s := r.rec.Stats; s != nil {
		s.Retries.Add(r.retries)
		s.RedeliveriesDropped.Add(r.redelivered)
		s.Failovers.Add(r.failovers)
	}
}

// metrics returns the collector metrics for a plan node, or nil when
// metrics are off.
func (r *runner) metrics(n algebra.Node) *obs.OpMetrics {
	if r.opts.Metrics == nil {
		return nil
	}
	return r.opts.Metrics.Node(n)
}

// cancelled surfaces a context abort between fragment and link steps.
func (r *runner) cancelled() error {
	if r.opts.Context == nil {
		return nil
	}
	return r.opts.Context.Err()
}

// eval evaluates a distributed subtree rooted at n.
func (r *runner) eval(n algebra.Node) (placed, error) {
	if x, ok := n.(*Exchange); ok {
		return r.evalExchange(x)
	}
	return r.evalFragment(n)
}

// evalFragment executes one fragment: the maximal subtree below n whose
// interior is ordinary algebra, bounded by Leaf shards and child
// exchanges. Child exchanges are evaluated (and their rows moved) first;
// then the fragment runs once at the coordinator, or once per node — sites
// at once, each result kept under its node index — when any of its sources
// is partitioned.
func (r *runner) evalFragment(n algebra.Node) (placed, error) {
	part := false
	var exchanges []*Exchange
	var walk func(m algebra.Node)
	walk = func(m algebra.Node) {
		switch t := m.(type) {
		case *Leaf:
			part = true
		case *Exchange:
			exchanges = append(exchanges, t)
		default:
			for _, child := range m.Children() {
				walk(child)
			}
		}
	}
	walk(n)

	delivered := make([]placed, len(exchanges))
	for i, x := range exchanges {
		d, err := r.evalExchange(x)
		if err != nil {
			return placed{}, err
		}
		delivered[i] = d
		if d.part {
			part = true
		}
	}

	// runAt executes the fragment as site i sees it. The node pool below
	// runs it once per node; a failover re-runs it for a dead node's
	// partition at the surviving owner of its shard replica.
	runAt := func(i int) ([]value.Row, error) {
		opts := *r.opts
		opts.Sources = r.sources(i, exchanges, delivered)
		// The store argument is nil: fragments contain no Scan nodes
		// (compilation replaced them with shard Leafs), so the executor
		// never touches it.
		res, err := exec.Run(n, nil, &opts)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
	if !part {
		rows, err := runAt(0)
		return placed{rows: rows}, err
	}
	for j, x := range exchanges {
		if !delivered[j].part {
			// A coordinator-resident source feeding a partitioned
			// fragment would mean data reached the nodes outside a
			// link; the compiler never produces this shape.
			return placed{}, fmt.Errorf("dist: %s delivers coordinator rows into a partitioned fragment", x.Describe())
		}
	}

	where := ""
	if r.sites > 1 {
		where = "dist: " + n.Describe() // formatted only for a pool that can report a panic under it
	}
	parts := make([][]value.Row, len(r.cl.nodes))
	err := exec.ForEach(where, r.sites, len(parts), func(_, i int) (err error) {
		if err = r.cancelled(); err == nil {
			parts[i], err = runAt(i)
		}
		return err
	})
	if err != nil {
		return placed{}, err
	}
	return placed{part: true, parts: parts, runAt: runAt}, nil
}

// sources is the binding of one fragment run (exec.Options.Sources): site's
// own shard of every Leaf, and of every exchange what was delivered to site
// — its partition, or the coordinator's one row set.
func (r *runner) sources(site int, exchanges []*Exchange, delivered []placed) func(algebra.Node) ([]value.Row, bool) {
	return func(n algebra.Node) ([]value.Row, bool) {
		switch t := n.(type) {
		case *Leaf:
			return r.cl.nodes[site].TableRows(t.Table), true
		case *Exchange:
			for j, x := range exchanges {
				if x != t {
					continue
				}
				d := delivered[j]
				if d.part {
					return d.parts[site], true
				}
				return d.rows, true
			}
		}
		return nil, false
	}
}

// evalExchange evaluates an exchange's input and applies its movement,
// shipping every cross-node slice as a tagged, fault-tolerant shipment
// and recording per-exchange rows/bytes/recovery metrics.
func (r *runner) evalExchange(x *Exchange) (placed, error) {
	in, err := r.eval(x.Input)
	if err != nil {
		return placed{}, err
	}
	if err := r.cancelled(); err != nil {
		return placed{}, err
	}
	m := r.metrics(x)

	switch x.Kind {
	case Gather:
		if !in.part {
			return placed{rows: in.rows}, nil
		}
		shipped := make([][]value.Row, 0, len(in.parts))
		for src, rows := range in.parts {
			if in.repl && src != 0 {
				break // replicated input: the coordinator already has it all
			}
			got, err := r.shipFT(m, src, 0, rows, recomputeAt(in, src))
			if err != nil {
				return placed{}, err
			}
			shipped = append(shipped, got)
		}
		return placed{rows: slices.Concat(shipped...)}, nil

	case Broadcast:
		full := in.rows
		if in.part {
			if in.repl {
				full = in.parts[0]
			} else {
				full = slices.Concat(in.parts...)
			}
		}
		// Account the replication: every row must reach every node that
		// does not already hold it.
		n := len(r.cl.nodes)
		parts := make([][]value.Row, n)
		if in.part && !in.repl {
			// Each source node ships its slice to every other node.
			for dst := 0; dst < n; dst++ {
				for src, rows := range in.parts {
					if src == dst {
						continue
					}
					if _, err := r.shipFT(m, src, dst, rows, recomputeAt(in, src)); err != nil {
						return placed{}, err
					}
				}
				parts[dst] = full
			}
		} else {
			// Coordinator-resident (or already replicated) input: node 0
			// ships the full set to every other node.
			for dst := 0; dst < n; dst++ {
				if dst != 0 {
					if _, err := r.shipFT(m, 0, dst, full, nil); err != nil {
						return placed{}, err
					}
				}
				parts[dst] = full
			}
		}
		return placed{part: true, repl: true, parts: parts}, nil

	case Shuffle:
		n := len(r.cl.nodes)
		srcs := in.parts
		if !in.part {
			srcs = [][]value.Row{in.rows}
		}
		shipped := make([][][]value.Row, n) // per destination, in source order
		for src, rows := range srcs {
			bySrc := partitionRows(rows, x.Keys, n)
			for dst := 0; dst < n; dst++ {
				if len(bySrc[dst]) == 0 {
					continue
				}
				got, err := r.shipFT(m, src, dst, bySrc[dst], shuffleRecompute(in, src, x.Keys, dst, n))
				if err != nil {
					return placed{}, err
				}
				shipped[dst] = append(shipped[dst], got)
			}
		}
		buckets := make([][]value.Row, n)
		for dst, pieces := range shipped {
			buckets[dst] = slices.Concat(pieces...)
		}
		return placed{part: true, parts: buckets}, nil

	default:
		return placed{}, fmt.Errorf("dist: unknown exchange kind %v", x.Kind)
	}
}

// partitionRows splits rows into n buckets by Partition, each in input order.
// The destinations are counted first, so the buckets are cut from one slice.
func partitionRows(rows []value.Row, keys []int, n int) [][]value.Row {
	dsts := make([]int, len(rows))
	counts := make([]int, n)
	for i, row := range rows {
		dsts[i] = Partition(row, keys, n)
		counts[dsts[i]]++
	}
	flat := make([]value.Row, len(rows))
	buckets := make([][]value.Row, n)
	start := 0
	for dst := range buckets {
		end := start + counts[dst]
		buckets[dst] = flat[start:start:end]
		start = end
	}
	for i, row := range rows {
		buckets[dsts[i]] = append(buckets[dsts[i]], row)
	}
	return buckets
}

// recomputeAt builds the failover recompute closure for partition src of
// a placed input: the surviving owner re-executes the fragment over the
// dead node's shard replica. nil when the input has no re-executable
// fragment (its rows arrived through an earlier exchange and survive in
// the runner's buffers; those shipments are re-routed as-is).
func recomputeAt(in placed, src int) func(owner int) ([]value.Row, error) {
	if in.runAt == nil {
		return nil
	}
	return func(int) ([]value.Row, error) { return in.runAt(src) }
}

// shuffleRecompute is recomputeAt for one shuffle bucket: re-execute the
// dead node's fragment, then keep only the rows that hash to dst.
func shuffleRecompute(in placed, src int, keys []int, dst, n int) func(owner int) ([]value.Row, error) {
	if in.runAt == nil {
		return nil
	}
	return func(int) ([]value.Row, error) {
		rows, err := in.runAt(src)
		if err != nil {
			return nil, err
		}
		var out []value.Row
		for _, row := range rows {
			if Partition(row, keys, n) == dst {
				out = append(out, row)
			}
		}
		return out, nil
	}
}

// shipFT moves one logical shipment from src to dst under the run's
// fault-tolerance policy. Same-site movement is free: no accounting, no
// fault ticks. Cross-node movement is attempted up to 1+LinkRetries times
// per owner, with clock-driven backoff between attempts; when a source
// exhausts its budget the circuit breaker may declare it dead and fail
// the shipment over to a surviving owner (recompute re-derives the
// payload there). The returned rows are what the receiver accepted —
// exactly one delivery, however many attempts the wire needed.
func (r *runner) shipFT(m *obs.OpMetrics, src, dst int, rows []value.Row, recompute func(owner int) ([]value.Row, error)) ([]value.Row, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	tag := ShipTag{Seq: r.nextSeq}
	r.nextSeq++
	if r.health.dead[src] {
		// The node died earlier in the run; its shard ownership already
		// moved. Route from the owner, re-deriving the payload there.
		owner := r.health.owner[src]
		if recompute != nil {
			rr, err := recompute(owner)
			if err != nil {
				return nil, err
			}
			rows = rr
		}
		src = owner
		tag.Epoch++
	}
	if src == dst {
		return rows, nil
	}

	var received []value.Row
	var lastErr error
	attempts := 0
	for hop := 0; hop < len(r.cl.nodes); hop++ {
		for attempt := 0; attempt <= r.rec.LinkRetries; attempt++ {
			if err := r.cancelled(); err != nil {
				return nil, err
			}
			if attempts > 0 {
				r.retries++
				if m != nil {
					m.Retries.Add(1)
				}
				if err := r.waitBackoff(tag, attempts); err != nil {
					return nil, err
				}
			}
			attempts++
			bytes, delivered, err := r.cl.links[src][dst].shipAttempt(rows, r.opts.Faults)
			if delivered {
				if m != nil && bytes > 0 {
					m.CommBytes.Add(bytes)
				}
				received = r.accept(m, tag, received, rows)
			}
			if err == nil {
				r.health.ok(src)
				return received, nil
			}
			lastErr = err
			r.health.fail(src)
		}
		// Retry budget exhausted from src: let the circuit breaker fail
		// the node over, or give up.
		next, ok, err := r.failOver(m, src, dst)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if recompute != nil {
			rr, err := recompute(next)
			if err != nil {
				return nil, err
			}
			rows = rr
		}
		src = next
		tag.Epoch++
		if src == dst {
			// Ownership landed on the destination itself: the payload is
			// local now, no link needed.
			return r.accept(m, tag, received, rows), nil
		}
	}
	return nil, &UnavailableError{Src: src, Dst: dst, Seq: tag.Seq, Attempts: attempts, Err: lastErr}
}

// accept is the receiver side of the shipment protocol: a tag's payload
// is merged at most once. A second delivery — the retry of a shipment
// whose ack, not payload, was lost — is a redelivery: dropped and
// counted. TestHooks.SkipShipmentDedup disables the dedup so the
// recovery oracle can demonstrate the double-merge corruption it
// prevents (an eager partial-aggregate state merged twice).
func (r *runner) accept(m *obs.OpMetrics, tag ShipTag, received, rows []value.Row) []value.Row {
	if !r.inbox[tag.Seq] {
		r.inbox[tag.Seq] = true
		return rows
	}
	if TestHooks.SkipShipmentDedup {
		return append(append([]value.Row(nil), received...), rows...)
	}
	r.redelivered++
	if m != nil {
		m.Redeliveries.Add(1)
	}
	return received
}

// waitBackoff waits out the exponential backoff before retry attempt
// (1-based) of a shipment. The wait is virtual: one read of the injected
// clock plus an accumulated duration checked against the context
// deadline — no goroutine ever sleeps, so recovery costs nothing real
// and is deterministic under obs.FakeClock.
func (r *runner) waitBackoff(tag ShipTag, attempt int) error {
	d := backoff(tag, attempt)
	if d <= 0 {
		return nil
	}
	clock := r.opts.Clock
	if clock == nil {
		clock = obs.Wall
	}
	now := clock.Now()
	r.waited += d
	if r.opts.Context != nil {
		if dl, ok := r.opts.Context.Deadline(); ok && now.Add(r.waited).After(dl) {
			return fmt.Errorf("dist: shipment %d retry backoff exceeds the context deadline: %w", tag.Seq, context.DeadlineExceeded)
		}
	}
	return nil
}

// failOver runs the circuit breaker after a source exhausted a
// shipment's retry budget: when the node has accumulated failThreshold
// consecutive failures it is declared dead, every shard it owned moves
// to the next surviving node, and the resulting ownership table is checked
// against the plancheck dist-recovery rule (CheckRecovery); a violation
// fails the run. Returns the new owner and true when the shipment
// should be retried from there. The coordinator (node 0) is the gather
// site and the query's result location; it cannot be failed over.
func (r *runner) failOver(m *obs.OpMetrics, src, dst int) (int, bool, error) {
	if !r.breaker || src == 0 || r.health.consec[src] < failThreshold {
		return 0, false, nil
	}
	n := len(r.cl.nodes)
	next := -1
	for step := 1; step < n; step++ {
		cand := (src + step) % n
		if !r.health.dead[cand] {
			next = cand
			break
		}
	}
	if next < 0 {
		return 0, false, nil
	}
	r.health.dead[src] = true
	for i, o := range r.health.owner {
		if o == src {
			r.health.owner[i] = next
		}
	}
	r.failovers++
	if m != nil {
		m.Failovers.Add(1)
	}
	if vs := plancheck.CheckRecovery(r.plan.Root, r.health.aliveMask(), r.health.ownerCopy()); len(vs) > 0 {
		return 0, false, fmt.Errorf("dist: recovery plan rejected: %w", vs[0])
	}
	return next, true, nil
}
