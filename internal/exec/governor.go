// Query lifecycle governance: cancellation, memory budgets and panic
// containment. A single *governor per execution carries the query context,
// the byte budget and the fault injector; every method is nil-receiver
// safe, so operators call g.tick()/g.charge() unconditionally and the
// ungoverned path costs one nil check. When no governance option is set the
// compiler builds no governor and meters nothing for it
// (TestGovernanceDisabledInsertsNoWrapper pins it).
package exec

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// governor is one execution's lifecycle state.
type governor struct {
	ctx    context.Context
	done   <-chan struct{}
	budget int64 // bytes; 0 means unlimited
	faults *fault.Injector
	// slow sends every tick down tickSlow: set from the start under a fault
	// injector, else raised, once, by the callback newGovernor hooks onto the
	// context, which unhook takes off again when the run ends.
	slow   atomic.Bool
	unhook func() bool
	// The fields above are read by every tick and written (almost) never; the
	// counters below are written by every charge. The pad keeps them on
	// different cache lines, so a worker's charge does not evict the flag
	// another worker is polling.
	_       [64]byte
	used    atomic.Int64
	hi      atomic.Int64 // high-water mark of used, for reporting
	spilled atomic.Int64 // total bytes written to spill files
}

// newGovernor builds the execution's governor, or nil when every
// governance option is off (the zero-cost path). Without a fault injector, a
// context that can be cancelled gets a callback that raises slow; the caller
// unhooks it with detach once the run is over.
func newGovernor(opts *Options) *governor {
	var done <-chan struct{}
	if opts.Context != nil {
		done = opts.Context.Done()
	}
	if done == nil && opts.MemoryBudget <= 0 && opts.Faults == nil {
		return nil
	}
	g := &governor{
		ctx:    opts.Context,
		done:   done,
		budget: opts.MemoryBudget,
		faults: opts.Faults,
	}
	if g.faults != nil {
		g.slow.Store(true) // every tick steps the injector and polls exactly
	} else if done != nil {
		g.unhook = context.AfterFunc(opts.Context, func() { g.slow.Store(true) })
	}
	return g
}

// detach takes the context callback off, so a context that outlives the run
// holds nothing of it. Nil-safe.
func (g *governor) detach() {
	if g != nil && g.unhook != nil {
		g.unhook()
	}
}

// tick is the per-row governance check. Without a fault injector it is one
// atomic load of slow, which writes nothing, so workers ticking at once share
// the line read-only. The flag is raised by a goroutine the context starts
// when it is cancelled, so a tick sees a cancel once that goroutine has run —
// at once on an idle processor, within the scheduler's preemption slice
// (some 10 ms) when every processor is busy — while cancelled, at every run,
// pipeline and chunk boundary, sees it exactly. Under a fault injector every
// tick steps it and then polls exactly, so an injected cancel stops the run at
// its own tick. Nil-safe, allocation-free, and small enough to inline.
func (g *governor) tick() error {
	if g != nil && g.slow.Load() {
		return g.tickSlow()
	}
	return nil
}

// tickSlow is a tick under a fault injector, or once the context is done.
func (g *governor) tickSlow() error {
	if g.faults == nil {
		return g.ctx.Err()
	}
	if err := g.faults.Step(); err != nil {
		return err
	}
	return g.cancelled()
}

// cancelled polls the context exactly — a non-blocking receive on its done
// channel — which operators call at run, pipeline and chunk boundaries.
func (g *governor) cancelled() error {
	if g == nil || g.done == nil {
		return nil
	}
	select {
	case <-g.done:
		return g.ctx.Err()
	default:
		return nil
	}
}

// charge accounts n bytes of operator state (hash-table entries, group
// accumulators) against the budget, returning a typed *ResourceError when
// the accounted total crosses it. State is charged when admitted and never
// released: the executor materializes, so operator state lives until the
// query ends, and the high-water mark is what an OOM would see.
func (g *governor) charge(op string, n int64) error {
	if g == nil {
		return nil
	}
	used := g.used.Add(n)
	g.note(used)
	if g.budget > 0 && used > g.budget {
		return &ResourceError{Budget: g.budget, Used: used, Op: op}
	}
	return nil
}

// tryCharge is the spill-capable variant of charge: it attempts to admit n
// bytes and reports whether they fit. On refusal the charge is backed out,
// so the caller can release other state (by spilling it to disk) and retry
// instead of aborting — a budget breach becomes a partitioning decision,
// not a *ResourceError. Only an admitted total reaches the high-water mark:
// a refused charge is state the run never held. A nil governor admits
// everything.
func (g *governor) tryCharge(n int64) bool {
	if g == nil {
		return true
	}
	used := g.used.Add(n)
	if g.budget > 0 && used > g.budget {
		g.used.Add(-n)
		return false
	}
	g.note(used)
	return true
}

// release returns n bytes of previously charged state to the budget —
// called when a spill operator writes its buffered state to disk. Only
// spill operators release; ordinary operators keep the charge-forever
// high-water semantics.
func (g *governor) release(n int64) {
	if g == nil {
		return
	}
	g.used.Add(-n)
}

// note maintains the high-water mark via CAS.
func (g *governor) note(used int64) {
	for {
		hi := g.hi.Load()
		if used <= hi || g.hi.CompareAndSwap(hi, used) {
			return
		}
	}
}

// noteSpill accounts n bytes written to a spill file (reporting only; spill
// bytes live on disk and are not budget state).
func (g *governor) noteSpill(n int64) {
	if g == nil {
		return
	}
	g.spilled.Add(n)
}

// spilledBytes reports the total bytes written to spill files.
func (g *governor) spilledBytes() int64 {
	if g == nil {
		return 0
	}
	return g.spilled.Load()
}

// diskTick advances the fault injector from a spill-file operation,
// exposing the disk fault kinds. Nil-safe.
func (g *governor) diskTick() error {
	if g == nil || g.faults == nil {
		return nil
	}
	return g.faults.DiskStep()
}

// usedBytes reports the accounted state high-water mark.
func (g *governor) usedBytes() int64 {
	if g == nil {
		return 0
	}
	if hi := g.hi.Load(); hi > 0 {
		return hi
	}
	return g.used.Load()
}

// panicError converts a recovered panic value into a typed error,
// preserving an already-typed *ExecPanicError from a nested recovery.
func panicError(where string, worker int, v any) error {
	if pe, ok := v.(*ExecPanicError); ok {
		return pe
	}
	return &ExecPanicError{Op: where, Worker: worker, Value: v, Stack: debug.Stack()}
}

// goSafe is the sanctioned way to start a goroutine in this package — the
// norawgo analyzer rejects any raw `go` statement outside it. It registers
// with wg, runs fn on a new goroutine, and converts a panic in fn into an
// *ExecPanicError delivered through fail strictly before the WaitGroup
// releases (the recovery defer runs before wg.Done), so a caller that
// wg.Waits observes the panic error without racing.
func goSafe(wg *sync.WaitGroup, where string, worker int, fail func(error), fn func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				fail(panicError(where, worker, r))
			}
		}()
		fn()
	}()
}
