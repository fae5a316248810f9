package exec

import "fmt"

// ResourceError reports a query aborted because operator state (hash-table
// keys and rows, group accumulators — the same quantities the obs
// StateBytes counters measure) exceeded Options.MemoryBudget. It is the
// engine's graceful alternative to an OOM kill: the executor stops
// admitting state the moment the accounted bytes cross the budget, and the
// caller can retry with a cheaper plan (the gbj engine re-executes the
// lazy group-after-join plan when the eager plan trips the budget).
type ResourceError struct {
	// Budget is the configured limit in bytes.
	Budget int64
	// Used is the accounted state size at the abort, including the
	// allocation that crossed the limit.
	Used int64
	// Op describes the operator whose allocation crossed the limit.
	Op string
}

// Error renders the budget violation.
func (e *ResourceError) Error() string {
	return fmt.Sprintf("exec: memory budget exceeded: %s needs %d bytes of operator state, budget is %d", e.Op, e.Used, e.Budget)
}

// SpillError reports a failure in the spill-to-disk machinery: a temp-file
// create, write, read, remove or close that failed (including injected disk
// faults). Spill operators never return partial results — any disk failure
// aborts the query with a SpillError wrapping the cause, and the engine may
// retry the query without spilling (the eager→lazy fallback path counts
// these retries alongside budget aborts).
type SpillError struct {
	// Op names the spilling operator ("external sort", "grace hash join",
	// "external aggregation").
	Op string
	// Stage names the failing I/O stage ("write run", "read partition",
	// "close", ...).
	Stage string
	// Err is the underlying cause.
	Err error
}

// Error renders the spill failure.
func (e *SpillError) Error() string {
	return fmt.Sprintf("exec: spill failed in %s (%s): %v", e.Op, e.Stage, e.Err)
}

// Unwrap exposes the cause to errors.Is/As chains.
func (e *SpillError) Unwrap() error { return e.Err }

// ExecPanicError wraps a panic recovered inside the executor — in a morsel
// worker or the caller's own goroutine —
// so that one runaway operator fails its query with a typed error instead
// of killing the process. Recovery is first-error-wins across a worker
// pool: concurrent panics all terminate their workers, and the error with
// the lowest chunk index (or the pool's first panic) is reported.
type ExecPanicError struct {
	// Op describes where the panic surfaced: the plan node or pool label.
	Op string
	// Worker is the morsel worker id, or -1 outside a worker pool.
	Worker int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error renders the contained panic.
func (e *ExecPanicError) Error() string {
	if e.Worker >= 0 {
		return fmt.Sprintf("exec: panic in %s (worker %d): %v", e.Op, e.Worker, e.Value)
	}
	return fmt.Sprintf("exec: panic in %s: %v", e.Op, e.Value)
}

// Unwrap exposes a panic value that was itself an error (e.g. a runtime
// error) to errors.Is/As chains.
func (e *ExecPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}
