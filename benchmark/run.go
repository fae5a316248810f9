package main

// The system under test and the untraced, closed-loop measurement that
// yields the end-to-end metrics. The system receives only generated SQL
// and CSV rows, through gbj.Engine and server.New/server.Client.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	gbj "repro"
	"repro/internal/server"
)

// A run sets the system up at least minSetUps times, and goes on for as
// long as the set-ups have taken less than setUpBudget together, up to
// maxSetUps: serve_mixed sets up in 10 ms, and the median of three such
// times is one scheduling hiccup away from half as much again. setup_s is
// the median and the last system is the one measured.
const (
	minSetUps   = 3
	maxSetUps   = 25
	setUpBudget = 1500 * time.Millisecond
)

// prepared holds what a workload needs before any system exists: the
// generated inputs and the reference answers.
type prepared struct {
	w      *workload
	inputs []input
	verify *verifier
	// shadow is kept for the traced run and dropped otherwise, so the
	// benchmark's copy of the data does not sit in live_heap_mb.
	shadow *shadow
	// load is what loading the shadow store measured (traced run).
	load loadStats
}

// input is what the system is given for one table.
type input struct {
	table, create, csv string
}

// loadStats times the storage layer while the shadow store loads.
type loadStats struct {
	rows    int
	seconds float64
}

// prepare generates the workload's dataset from the seed, loads the shadow
// store and computes the reference results.
func prepare(w *workload, seed int64, keepShadow bool) (*prepared, error) {
	var d *dataset
	switch w.dataset {
	case "star":
		d = starDataset(seed, w.facts)
	case "hr":
		d = hrDataset(seed)
	default:
		return nil, fmt.Errorf("workload %s: unknown dataset %q", w.name, w.dataset)
	}
	p := &prepared{w: w}
	for _, t := range d.tables {
		p.inputs = append(p.inputs, input{table: t.def.Name, create: t.createSQL(), csv: t.csv()})
	}
	s, err := newShadow(d)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	n, err := s.load(d)
	if err != nil {
		return nil, err
	}
	p.load = loadStats{rows: n, seconds: time.Since(start).Seconds()}
	if p.verify, err = newVerifier(w, s); err != nil {
		return nil, err
	}
	if keepShadow {
		p.shadow = s
	}
	return p, nil
}

// system is one set-up instance of the program under test.
type system struct {
	w       *workload
	eng     *gbj.Engine
	srv     *server.Server
	served  chan error
	clients []*server.Client
}

// setUp builds the engine, loads the data, starts the server and its
// sessions for a server workload, and warms up: every read text runs once
// per caller, checked, which fills the plan cache, builds the columnar
// and cluster caches and opens the clients' connections.
func setUp(ctx context.Context, p *prepared) (*system, error) {
	w := p.w
	s := &system{w: w, eng: gbj.New()}
	s.eng.SetVectorize(w.vectorize)
	s.eng.SetParallelism(w.parallelism)
	if w.nodes > 1 {
		if err := s.eng.SetNodes(w.nodes); err != nil {
			return nil, err
		}
	}
	for _, in := range p.inputs {
		if err := s.eng.Exec(in.create); err != nil {
			return nil, err
		}
		if _, err := s.eng.LoadCSV(in.table, strings.NewReader(in.csv), false); err != nil {
			return nil, err
		}
	}
	if w.server {
		if err := s.serve(ctx); err != nil {
			return nil, errors.Join(err, s.close(ctx))
		}
	}
	for caller := 0; caller < w.callers; caller++ {
		for _, q := range w.queries {
			for v := range q.variants {
				o := op{q: q, variant: v}
				rows, err := s.read(ctx, caller, o.text())
				if err != nil {
					return nil, errors.Join(fmt.Errorf("warm-up %s: %w", q.id, err), s.close(ctx))
				}
				if !p.verify.ok(o, rows) {
					return nil, errors.Join(fmt.Errorf("warm-up %s: wrong result", q.id), s.close(ctx))
				}
			}
		}
	}
	return s, nil
}

// serve starts the server on a loopback listener and opens one session
// per caller.
func (s *system) serve(ctx context.Context) error {
	srv, err := server.New(ctx, server.Config{
		Engine:        s.eng,
		PoolBytes:     poolBytes,
		PerQueryBytes: perQueryBytes,
		PlanCacheSize: planCacheSize,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("loopback listener: %w", err)
	}
	s.srv = srv
	s.served = make(chan error, 1)
	go func() { s.served <- srv.Serve(ln) }()
	for i := 0; i < s.w.callers; i++ {
		c := server.NewClient("http://"+ln.Addr().String(), nil)
		if err := c.NewSession(ctx); err != nil {
			return err
		}
		s.clients = append(s.clients, c)
	}
	return nil
}

// read runs one SELECT the way the workload's callers see the system.
func (s *system) read(ctx context.Context, caller int, text string) ([][]any, error) {
	if s.w.server {
		resp, err := s.clients[caller].QueryDetail(ctx, text, nil)
		if err != nil {
			return nil, err
		}
		return resp.Rows, nil
	}
	res, err := s.eng.QueryContext(ctx, text)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// write runs one INSERT.
func (s *system) write(ctx context.Context, caller int, text string) error {
	if s.w.server {
		return s.clients[caller].Exec(ctx, text)
	}
	return s.eng.Exec(text)
}

// close ends the sessions and stops the server, returning once its
// listener goroutine has exited.
func (s *system) close(ctx context.Context) error {
	var errs []error
	for _, c := range s.clients {
		errs = append(errs, c.CloseSession(ctx))
	}
	if s.srv != nil {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		errs = append(errs, s.srv.Shutdown(sctx), <-s.served)
	}
	return errors.Join(errs...)
}

// read is one checked read of the measured window.
type read struct {
	q    *query
	ms   float64
	done time.Duration // since the window began
	// yard is the caller's yardstick when the read was done.
	yard reading
}

// window is what one closed-loop measurement observed.
type window struct {
	// reads holds each caller's checked reads, in completion order.
	reads     [][]read
	writeMS   []float64
	attempted int
	failed    int
	seconds   float64
	// allocMB is MemStats.TotalAlloc growth over the window, whole process,
	// less what the callers' yardsticks allocated.
	allocMB float64
	// slow is the yardsticks' slowdown over the whole window.
	slow float64
}

// readCount counts the reads that returned a checked answer.
func (m *window) readCount() int {
	n := 0
	for _, rs := range m.reads {
		n += len(rs)
	}
	return n
}

// turns is how many pieces a caller's reads are cut into.
const turns = 32

// turn is a stretch of one caller's reads, and what the yardstick said
// about the machine over it.
type turn struct {
	reads []read
	// slow is the slowdown the yardstick saw inside the turn.
	slow float64
	// rate is the caller's reads per second of the time the yardstick left
	// it, writes and checking included, at nominal speed.
	rate float64
}

// cut cuts each caller's reads into turns of equal length — whole rounds of
// the templates, so that turns hold the same mix; the last turn takes the
// remainder. The machine's speed drifts within a run as well as between
// runs, so each turn is held against the yardstick runs inside it.
func (m *window) cut(w *workload) []turn {
	round := len(w.queries)
	if w.mixed {
		round = 1
	}
	var out []turn
	for _, rs := range m.reads {
		if len(rs) == 0 {
			continue
		}
		n := max(len(rs)/turns/round*round, round)
		whole := slowdown(reading{}, rs[len(rs)-1].yard)
		var begin read
		for i := 0; i < len(rs); {
			j := i + n
			if len(rs)-j < n {
				j = len(rs)
			}
			end := rs[j-1]
			t := turn{reads: rs[i:j], slow: slowdown(begin.yard, end.yard)}
			if end.yard.runs == begin.yard.runs {
				t.slow = whole
			}
			own := (end.done - begin.done) - (end.yard.spent - begin.yard.spent)
			t.rate = float64(j-i) / own.Seconds() * t.slow
			out = append(out, t)
			begin, i = end, j
		}
	}
	return out
}

// perTemplate returns, for each template, its reads' latencies at nominal
// speed.
func perTemplate(w *workload, ts []turn) [][]float64 {
	by := make(map[*query][]float64)
	for _, t := range ts {
		for _, r := range t.reads {
			by[r.q] = append(by[r.q], r.ms/t.slow)
		}
	}
	out := make([][]float64, len(w.queries))
	for i, q := range w.queries {
		out[i] = by[q]
	}
	return out
}

// typical returns the workload's median and p90 read latency, and the
// sample count behind the p90; ok is false when fewer than minBeyond
// samples lie beyond it. A workload alternates between queries whose
// latencies differ up to twenty-fold: a percentile of the pooled samples
// sits on the edge between two clusters and follows whichever sample lands
// there, and an arithmetic mean of per-template numbers is the slowest
// template's number. So p50 is the geometric mean of the templates' medians
// — it moves by the same share whichever template moves — and p90 is p50
// times the p90 of every read's latency relative to its template's median,
// which pools all the reads into one tail.
func typical(templates [][]float64) (p50, p90 float64, n int, ok bool) {
	var logs float64
	var relative []float64
	for _, samples := range templates {
		m := median(samples)
		logs += math.Log(m)
		for _, v := range samples {
			relative = append(relative, v/m)
		}
	}
	p50 = math.Exp(logs / float64(len(templates)))
	tail, n, ok := percentile(relative, 90)
	return p50, p50 * tail, n, ok
}

// readsPerSecond is the callers' combined read rate at nominal speed: the
// median turn rate times the number of callers. Like the mean rate it
// counts all the work, but a stall of the machine spoils one turn and not
// the run.
func (m *window) readsPerSecond(ts []turn) float64 {
	rates := make([]float64, len(ts))
	for i, t := range ts {
		rates[i] = t.rate
	}
	return median(rates) * float64(len(m.reads))
}

// measure drives the system closed-loop — each caller sends its next op
// when the previous one has returned — for about d, and checks every
// response. A workload with writes has each caller INSERT a row every
// writeEvery, so the table's growth over a run does not depend on how
// fast the reads are. Between ops each caller gives a yardstickShare-th of
// its time to its yardstick.
func measure(ctx context.Context, s *system, v *verifier, seed int64, d time.Duration) *window {
	type callerLog struct {
		reads             []read
		writeMS           []float64
		attempted, failed int
	}
	logs := make([]callerLog, s.w.callers)
	yards := make([]yardstick, s.w.callers)
	yardMB := yardstickAllocMB()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for caller := range logs {
		wg.Add(1)
		go func(caller int) {
			defer wg.Done()
			log := &logs[caller]
			seq := newSequence(s.w, seed, caller)
			yard := &yards[caller]
			writes := 0
			for now := start; now.Before(deadline); now = time.Now() {
				for yard.spent*yardstickShare < now.Sub(start) {
					yard.run()
					now = time.Now()
				}
				if !now.Before(deadline) {
					// An op begun past the deadline would be a write
					// more in some runs than in others.
					break
				}
				log.attempted++
				if every := s.w.writeEvery; every > 0 && now.Sub(start) >= time.Duration(writes+1)*every {
					writes++
					err := s.write(ctx, caller, insertSQL(caller, writes))
					if err != nil {
						log.failed++
						continue
					}
					log.writeMS = append(log.writeMS, ms(time.Since(now)))
					continue
				}
				o := seq.next()
				rows, err := s.read(ctx, caller, o.text())
				lat := time.Since(now)
				if err != nil || !v.ok(o, rows) {
					log.failed++
					continue
				}
				log.reads = append(log.reads, read{q: o.q, ms: ms(lat), done: time.Since(start), yard: yard.read()})
			}
		}(caller)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	m := &window{seconds: elapsed.Seconds(), allocMB: mb(after.TotalAlloc - before.TotalAlloc)}
	var all reading
	for _, y := range yards {
		m.allocMB -= float64(y.runs) * yardMB
		all.spent, all.runs = all.spent+y.spent, all.runs+y.runs
	}
	m.slow = slowdown(reading{}, all)
	for _, log := range logs {
		m.reads = append(m.reads, log.reads)
		m.writeMS = append(m.writeMS, log.writeMS...)
		m.attempted += log.attempted
		m.failed += log.failed
	}
	return m
}

// liveHeapMB forces a collection and returns the heap still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return mb(st.HeapAlloc)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func mb(bytes uint64) float64    { return float64(bytes) / (1 << 20) }

// runResult is the outcome of one workload run: what the last output line
// reports.
type runResult struct {
	workload  string
	metrics   map[string]float64
	attempted int
	failed    int
	// reads is the sample count behind the read percentiles.
	reads int
	// slow is the slowdown the yardstick saw over the window: what the
	// timings were divided by, turn by turn.
	slow float64
}

// setUpBurst is how long the yardstick runs before and after each set-up.
const setUpBurst = 25 * time.Millisecond

// setUpMedian sets the system up several times, closing all but the last,
// and returns the last one with the median set-up time at nominal speed:
// each set-up is held against the yardstick bursts on either side of it.
func setUpMedian(ctx context.Context, p *prepared) (*system, float64, error) {
	var times []time.Duration
	var spent time.Duration
	var s *system
	var yard yardstick
	marks := []reading{yard.read()}
	for i := 0; i < minSetUps || (i < maxSetUps && spent < setUpBudget); i++ {
		if s != nil {
			if err := s.close(ctx); err != nil {
				return nil, 0, err
			}
			s = nil
			runtime.GC()
		}
		yard.runFor(setUpBurst)
		marks = append(marks, yard.read())
		start := time.Now()
		var err error
		if s, err = setUp(ctx, p); err != nil {
			return nil, 0, err
		}
		took := time.Since(start)
		spent += took
		times = append(times, took)
	}
	yard.runFor(setUpBurst)
	marks = append(marks, yard.read())
	nominal := make([]float64, len(times))
	for i, took := range times {
		nominal[i] = took.Seconds() / slowdown(marks[i], marks[i+2])
	}
	return s, median(nominal), nil
}

// runUntraced measures one workload's end-to-end metrics.
func runUntraced(ctx context.Context, w *workload, seed int64, d time.Duration) (*runResult, error) {
	p, err := prepare(w, seed, false)
	if err != nil {
		return nil, err
	}
	s, setupS, err := setUpMedian(ctx, p)
	if err != nil {
		return nil, err
	}
	m := measure(ctx, s, p.verify, seed, d)
	ts := m.cut(w)
	templates := perTemplate(w, ts)
	// A window too short for a p90 with ten samples beyond it still
	// reports one — the output is all numbers — and says so: the workloads
	// are sized to collect the samples needed, so this is a machine running
	// well under its speed, not a number to trust.
	p50, p90, reads, ok := typical(templates)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: %s: only %d read samples in %.1fs: fewer than %d lie beyond query_p90_ms\n",
			w.name, reads, m.seconds, minBeyond)
	}
	res := &runResult{
		workload: w.name,
		metrics: map[string]float64{
			"query_p50_ms":       p50,
			"query_p90_ms":       p90,
			"queries_per_s":      m.readsPerSecond(ts),
			"alloc_mb_per_query": m.allocMB / float64(reads+len(m.writeMS)),
			"setup_s":            setupS,
		},
		attempted: m.attempted,
		failed:    m.failed,
		reads:     reads,
		slow:      m.slow,
	}
	// The generated inputs and the sample log are the benchmark's, not the
	// program's: drop them so live_heap_mb is the engine's heap. s, still
	// needed below, keeps the engine alive.
	p.inputs, m, ts, templates = nil, nil, nil, nil
	res.metrics["live_heap_mb"] = liveHeapMB()
	if err := s.close(ctx); err != nil {
		return nil, err
	}
	return res, nil
}
