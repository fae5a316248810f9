// Package fault is a deterministic fault-injection harness for the
// executor. An Injector carries a schedule of faults keyed by execution
// tick — a global counter the executor advances once per governed row-path
// event — so a given schedule fires at exactly the same logical point of a
// serial execution every time, regardless of host speed. The chaos oracle
// (internal/exec) drives randomized schedules derived from a seed and
// demands that every faulted run either matches the no-fault oracle rows
// exactly or fails with a clean typed error.
//
// The core fault kinds cover the executor's failure surface (link kinds
// fire only on the distributed link path, disk kinds only on the spill-file
// path — see LinkStep and DiskStep):
//
//   - AllocFail simulates an allocation failure: Step returns a typed
//     *Error, which the executor propagates as the query error.
//   - Panic panics with a *PanicValue, exercising the executor's panic
//     containment (recovery into *exec.ExecPanicError).
//   - Delay sleeps briefly, perturbing scheduling to shake out races and
//     leaks without changing results.
//   - Cancel invokes the injector's cancel function (normally a
//     context.CancelFunc), exercising cancel-at-row-N behaviour.
//
// The package deliberately avoids math/rand: schedules come from a local
// splitmix64 generator, so a seed means the same schedule on every
// platform and Go version.
package fault

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Kind is a fault category.
type Kind uint8

// The fault kinds. The first four fire on the executor's row path (Step);
// LinkDelay and LinkDrop model a slow or failing network link and fire only
// on the distributed runtime's link path (LinkStep), so a row-path schedule
// never perturbs a single-node run with link faults and vice versa.
const (
	AllocFail Kind = iota
	Panic
	Delay
	Cancel
	LinkDelay
	LinkDrop
	DiskWriteFail
	DiskShortWrite
	DiskReadFail
	DiskCloseFail
)

// numRowKinds bounds the kinds NewSeeded draws from; numKinds bounds
// NewSeededLinks, which mixes row and link faults; numDiskKinds bounds
// NewSeededDisk, which mixes row and disk faults (link kinds excluded —
// spill files and network links never share a schedule).
const (
	numRowKinds  = 4
	numKinds     = 6
	numDiskKinds = 10
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case AllocFail:
		return "alloc-fail"
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case Cancel:
		return "cancel"
	case LinkDelay:
		return "link-delay"
	case LinkDrop:
		return "link-drop"
	case DiskWriteFail:
		return "disk-write-fail"
	case DiskShortWrite:
		return "disk-short-write"
	case DiskReadFail:
		return "disk-read-fail"
	case DiskCloseFail:
		return "disk-close-fail"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event schedules one fault at the given execution tick (1-based: the Nth
// Step call fires it).
type Event struct {
	Tick int64
	Kind Kind
}

// Error is the typed error an AllocFail event injects. Callers can
// errors.As against it to distinguish injected failures from real ones.
type Error struct {
	Kind Kind
	Tick int64
}

// Error renders the injected failure.
func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %v at tick %d", e.Kind, e.Tick)
}

// PanicValue is the value an injected panic carries, so recovery layers
// (and tests) can recognize a deliberate panic.
type PanicValue struct {
	Tick int64
}

// String renders the panic value.
func (p *PanicValue) String() string {
	return fmt.Sprintf("fault: injected panic at tick %d", p.Tick)
}

// Clock is the injected time source Delay and LinkDelay events consult
// when one is installed (WithClock). It is structurally identical to
// obs.Clock; declaring it locally keeps this package dependency-free.
type Clock interface {
	Now() time.Time
}

// Injector fires a fixed schedule of faults as the executor advances the
// tick counter. Step is safe for concurrent use: the counter is atomic and
// each tick value is observed by exactly one caller, so every event fires
// at most once. A nil *Injector is inert.
type Injector struct {
	at map[int64]Kind
	// atLink schedules events on the link ordinal (the count of LinkStep
	// calls) instead of the shared tick counter; NewSeededLinkOnly uses it
	// so link-fault schedules cannot be absorbed by row-path traffic.
	atLink   map[int64]Kind
	events   []Event
	cancel   func()
	delay    time.Duration
	clock    Clock
	tick     atomic.Int64
	linkTick atomic.Int64
}

// New builds an injector with an explicit schedule.
func New(events []Event) *Injector {
	i := &Injector{
		at:     make(map[int64]Kind, len(events)),
		atLink: make(map[int64]Kind),
		events: append([]Event(nil), events...),
		delay:  100 * time.Microsecond,
	}
	for _, e := range events {
		i.at[e.Tick] = e.Kind
	}
	return i
}

// WithCancel sets the function a Cancel event invokes (normally the
// query context's CancelFunc) and returns the injector.
func (i *Injector) WithCancel(cancel func()) *Injector {
	i.cancel = cancel
	return i
}

// WithDelay sets the sleep duration of Delay events and returns the
// injector.
func (i *Injector) WithDelay(d time.Duration) *Injector {
	i.delay = d
	return i
}

// WithClock installs an injected clock and returns the injector. With a
// clock installed, Delay and LinkDelay events advance virtual time (one
// Now read) instead of sleeping for real, so fault schedules that include
// delays stay fast and — under obs.FakeClock — byte-stable. Install it
// before the run starts; like WithCancel it is not synchronized against
// in-flight Step calls.
func (i *Injector) WithClock(c Clock) *Injector {
	i.clock = c
	return i
}

// pause realizes a Delay/LinkDelay event: a virtual-time advance when a
// clock is injected, a real sleep otherwise.
func (i *Injector) pause() {
	if i.clock != nil {
		i.clock.Now()
		return
	}
	time.Sleep(i.delay)
}

// rng is splitmix64 — a tiny deterministic generator so schedules derived
// from a seed are identical across platforms (and this package stays off
// math/rand).
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int64) int64 {
	return int64(r.next() % uint64(n))
}

// seededEvents is the body every seeded constructor but NewSeededLinkOnly
// shares: horizon and maxEvents clamped to at least 1, an event count drawn
// in [1, maxEvents], then each event drawn by draw from the same generator.
// The same (seed, horizon, maxEvents, draw) always yields the same events.
func seededEvents(seed, horizon int64, maxEvents int, draw func(r *rng, horizon int64) Event) []Event {
	if horizon < 1 {
		horizon = 1
	}
	if maxEvents < 1 {
		maxEvents = 1
	}
	r := &rng{state: uint64(seed)}
	n := 1 + r.intn(int64(maxEvents))
	events := make([]Event, 0, n)
	for k := int64(0); k < n; k++ {
		events = append(events, draw(r, horizon))
	}
	return events
}

// NewSeeded derives a deterministic random schedule from seed: between one
// and maxEvents faults, each of a random row-path kind at a random tick in
// [1, horizon]. The same (seed, horizon, maxEvents) always yields the same
// schedule.
func NewSeeded(seed int64, horizon int64, maxEvents int) *Injector {
	return New(seededEvents(seed, horizon, maxEvents, func(r *rng, horizon int64) Event {
		return Event{Tick: 1 + r.intn(horizon), Kind: Kind(r.intn(numRowKinds))}
	}))
}

// NewSeededLinks derives a deterministic random schedule that mixes all six
// fault kinds, including the link-level LinkDelay/LinkDrop faults the
// distributed chaos oracle exercises. The same (seed, horizon, maxEvents)
// always yields the same schedule.
func NewSeededLinks(seed int64, horizon int64, maxEvents int) *Injector {
	return New(seededEvents(seed, horizon, maxEvents, func(r *rng, horizon int64) Event {
		return Event{Tick: 1 + r.intn(horizon), Kind: Kind(r.intn(numKinds))}
	}))
}

// NewSeededLinkOnly derives a deterministic random schedule of pure link
// faults: between one and maxEvents events, each LinkDelay or LinkDrop. The
// events are keyed to the injector's *link ordinal* — the count of LinkStep
// calls, not the shared tick counter — with distinct ordinals drawn in
// [1, horizon], so no event can shadow another.
// Keying on link ordinals matters twice over: row-path Step traffic (which
// dwarfs link traffic on any real plan) cannot absorb the events, so the
// schedule actually perturbs shipments; and row-path kinds are excluded, so
// it can only perturb shipments, never kill a fragment. Together that makes
// a schedule *bounded* for the recovery oracle: with a per-shipment retry
// budget of at least maxEvents, some attempt of every shipment must succeed
// and the query must complete with oracle-identical rows. The same (seed,
// horizon, maxEvents) always yields the same schedule.
func NewSeededLinkOnly(seed int64, horizon int64, maxEvents int) *Injector {
	if horizon < 1 {
		horizon = 1
	}
	if maxEvents < 1 {
		maxEvents = 1
	}
	r := &rng{state: uint64(seed)}
	n := 1 + r.intn(int64(maxEvents))
	if n > horizon {
		n = horizon // ordinals are distinct; can't schedule more than exist
	}
	events := make([]Event, 0, n)
	seen := make(map[int64]bool, n)
	for int64(len(events)) < n {
		kind := LinkDelay
		if r.intn(2) == 1 {
			kind = LinkDrop
		}
		tick := 1 + r.intn(horizon)
		for seen[tick] {
			tick = tick%horizon + 1
		}
		seen[tick] = true
		events = append(events, Event{Tick: tick, Kind: kind})
	}
	return NewLinkSchedule(events)
}

// NewLinkSchedule builds an injector with an explicit schedule keyed to
// link ordinals: each event's Tick names the n-th LinkStep call instead of
// the shared tick counter, so the schedule targets shipments precisely no
// matter how much row-path traffic interleaves. Recovery tests use it to
// aim a LinkDrop at a specific payload or ack tick of a known shipment.
func NewLinkSchedule(events []Event) *Injector {
	i := New(nil)
	i.events = append([]Event(nil), events...)
	for _, e := range events {
		i.atLink[e.Tick] = e.Kind
	}
	return i
}

// NewSeededDisk derives a deterministic random schedule that mixes the four
// row-path kinds with the four disk kinds (DiskWriteFail, DiskShortWrite,
// DiskReadFail, DiskCloseFail), for the disk-chaos oracle that exercises the
// spill operators. Link kinds are excluded. Draws landing on a link kind's
// ordinal are remapped onto disk kinds so every schedule stays meaningful
// for a single-node spilling run. The same (seed, horizon, maxEvents)
// always yields the same schedule.
func NewSeededDisk(seed int64, horizon int64, maxEvents int) *Injector {
	return New(seededEvents(seed, horizon, maxEvents, func(r *rng, horizon int64) Event {
		kind := Kind(r.intn(numDiskKinds))
		if kind == LinkDelay || kind == LinkDrop {
			kind = DiskWriteFail + Kind(r.intn(int64(numDiskKinds)-int64(DiskWriteFail)))
		}
		return Event{Tick: 1 + r.intn(horizon), Kind: kind}
	}))
}

// Events returns the schedule (a copy), for logging failed chaos runs.
func (i *Injector) Events() []Event {
	if i == nil {
		return nil
	}
	return append([]Event(nil), i.events...)
}

// Ticks reports how many Step calls have happened.
func (i *Injector) Ticks() int64 {
	if i == nil {
		return 0
	}
	return i.tick.Load()
}

// LinkTicks reports how many LinkStep calls have happened — the horizon a
// link-ordinal schedule (NewSeededLinkOnly) should be derived from.
func (i *Injector) LinkTicks() int64 {
	if i == nil {
		return 0
	}
	return i.linkTick.Load()
}

// Step advances the tick counter by one and fires the event scheduled at
// the new tick, if any: AllocFail returns a typed *Error, Panic panics
// with a *PanicValue, Delay sleeps, Cancel invokes the cancel function.
// Link-kind events scheduled on a tick that the row path consumes are
// skipped (each tick is observed by exactly one caller, so an event fires
// at most once, on the path that owns its tick). A nil injector does
// nothing.
func (i *Injector) Step() error {
	if i == nil {
		return nil
	}
	t := i.tick.Add(1)
	k, ok := i.at[t]
	if !ok {
		return nil
	}
	return i.fire(k, t)
}

// fire realizes a row-path kind scheduled at tick t — the four kinds that
// fire on every path: AllocFail returns a typed *Error, Panic panics with a
// *PanicValue, Delay pauses, Cancel invokes the cancel function. Any other
// kind belongs to a path that is not the caller's and is skipped.
func (i *Injector) fire(k Kind, t int64) error {
	switch k {
	case AllocFail:
		return &Error{Kind: AllocFail, Tick: t}
	case Panic:
		panic(&PanicValue{Tick: t})
	case Delay:
		i.pause()
	case Cancel:
		if i.cancel != nil {
			i.cancel()
		}
	}
	return nil
}

// LinkStep advances the tick counter by one from the distributed runtime's
// link path and fires the event scheduled at the new tick, if any. All six
// kinds fire here: a link is just another place an allocation can fail or
// a panic can surface, and LinkDelay/LinkDrop model the network itself —
// LinkDrop returns a typed *Error (the shipment is lost and the query must
// fail cleanly), LinkDelay sleeps. Link-ordinal schedules (NewSeededLinkOnly)
// are consulted first, keyed by the count of LinkStep calls; the shared tick
// still advances either way. A nil injector does nothing.
func (i *Injector) LinkStep() error {
	if i == nil {
		return nil
	}
	lt := i.linkTick.Add(1)
	t := i.tick.Add(1)
	k, ok := i.atLink[lt]
	if !ok {
		k, ok = i.at[t]
	}
	if !ok {
		return nil
	}
	switch k {
	case LinkDelay:
		i.pause()
		return nil
	case LinkDrop:
		return &Error{Kind: LinkDrop, Tick: t}
	}
	return i.fire(k, t)
}

// DiskStep advances the tick counter by one from a spill-file operation
// (write, read or close) and fires the event scheduled at the new tick, if
// any. The four row kinds fire exactly as on the row path — a disk
// operation is just another place an allocation can fail or a cancel can
// land — and the four disk kinds return a typed *Error that the caller
// maps onto the failing I/O operation (DiskShortWrite additionally asks
// the caller to consume part of the buffer before failing, modelling a
// torn write). Link kinds scheduled on a tick this path consumes are
// skipped. A nil injector does nothing.
func (i *Injector) DiskStep() error {
	if i == nil {
		return nil
	}
	t := i.tick.Add(1)
	k, ok := i.at[t]
	if !ok {
		return nil
	}
	switch k {
	case DiskWriteFail, DiskShortWrite, DiskReadFail, DiskCloseFail:
		return &Error{Kind: k, Tick: t}
	}
	return i.fire(k, t)
}
