package fault

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestScheduleFiresAtExactTicks: each event fires on exactly the scheduled
// Step call and never again.
func TestScheduleFiresAtExactTicks(t *testing.T) {
	inj := New([]Event{{Tick: 3, Kind: AllocFail}, {Tick: 5, Kind: AllocFail}})
	var fired []int64
	for i := 1; i <= 8; i++ {
		if err := inj.Step(); err != nil {
			var fe *Error
			if !errors.As(err, &fe) {
				t.Fatalf("step %d: error %v is not a *fault.Error", i, err)
			}
			fired = append(fired, fe.Tick)
		}
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 5 {
		t.Fatalf("alloc failures fired at %v, want [3 5]", fired)
	}
	if inj.Ticks() != 8 {
		t.Fatalf("Ticks() = %d, want 8", inj.Ticks())
	}
}

// TestSeededDeterminism: the same seed yields the same schedule; different
// seeds (almost surely) differ.
func TestSeededDeterminism(t *testing.T) {
	a := NewSeeded(42, 1000, 4).Events()
	b := NewSeeded(42, 1000, 4).Events()
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedule lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedules: %v vs %v", a, b)
		}
	}
	if len(a) == 0 || len(a) > 4 {
		t.Fatalf("schedule size %d outside [1, 4]", len(a))
	}
	for _, e := range a {
		if e.Tick < 1 || e.Tick > 1000 {
			t.Fatalf("event tick %d outside [1, 1000]", e.Tick)
		}
	}
}

// TestPanicValue: a Panic event panics with a recognizable *PanicValue.
func TestPanicValue(t *testing.T) {
	inj := New([]Event{{Tick: 1, Kind: Panic}})
	defer func() {
		r := recover()
		pv, ok := r.(*PanicValue)
		if !ok {
			t.Fatalf("recovered %T (%v), want *fault.PanicValue", r, r)
		}
		if pv.Tick != 1 {
			t.Fatalf("panic tick %d, want 1", pv.Tick)
		}
	}()
	inj.Step()
	t.Fatal("injected panic did not fire")
}

// TestCancelInvokesFunc: a Cancel event calls the registered cancel
// function exactly once.
func TestCancelInvokesFunc(t *testing.T) {
	calls := 0
	inj := New([]Event{{Tick: 2, Kind: Cancel}}).WithCancel(func() { calls++ })
	for i := 0; i < 5; i++ {
		if err := inj.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 1 {
		t.Fatalf("cancel invoked %d times, want 1", calls)
	}
}

// TestConcurrentStepFiresOnce: under concurrent Step calls every scheduled
// event fires at most once (each tick value is claimed by one caller).
func TestConcurrentStepFiresOnce(t *testing.T) {
	inj := New([]Event{{Tick: 50, Kind: AllocFail}}).WithDelay(time.Microsecond)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := inj.Step(); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if len(errs) != 1 {
		t.Fatalf("alloc failure fired %d times under concurrency, want exactly 1", len(errs))
	}
	if inj.Ticks() != 400 {
		t.Fatalf("Ticks() = %d, want 400", inj.Ticks())
	}
}

// TestSeededConstructorsDeterministic: every seeded constructor is a pure
// function of (seed, horizon, maxEvents) — byte-identical schedules on
// repeat calls, and every event within its advertised kind set and tick
// range. This is what lets a failed chaos run be replayed from its logged
// seed.
func TestSeededConstructorsDeterministic(t *testing.T) {
	cases := []struct {
		name  string
		make  func(seed int64) *Injector
		kinds func(k Kind) bool
	}{
		{"NewSeeded", func(s int64) *Injector { return NewSeeded(s, 500, 6) },
			func(k Kind) bool { return k >= AllocFail && k < Kind(numRowKinds) }},
		{"NewSeededLinks", func(s int64) *Injector { return NewSeededLinks(s, 500, 6) },
			func(k Kind) bool { return k >= AllocFail && k < Kind(numKinds) }},
		{"NewSeededLinkOnly", func(s int64) *Injector { return NewSeededLinkOnly(s, 500, 6) },
			func(k Kind) bool { return k == LinkDelay || k == LinkDrop }},
		{"NewSeededDisk", func(s int64) *Injector { return NewSeededDisk(s, 500, 6) },
			func(k Kind) bool {
				return (k >= AllocFail && k < LinkDelay) || (k >= DiskWriteFail && k < Kind(numDiskKinds))
			}},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 50; seed++ {
			a, b := c.make(seed).Events(), c.make(seed).Events()
			if len(a) != len(b) {
				t.Fatalf("%s(seed=%d): schedule lengths differ, %d vs %d", c.name, seed, len(a), len(b))
			}
			if len(a) < 1 || len(a) > 6 {
				t.Fatalf("%s(seed=%d): %d events outside [1, 6]", c.name, seed, len(a))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s(seed=%d): schedules differ: %v vs %v", c.name, seed, a, b)
				}
				if a[i].Tick < 1 || a[i].Tick > 500 {
					t.Fatalf("%s(seed=%d): tick %d outside [1, 500]", c.name, seed, a[i].Tick)
				}
				if !c.kinds(a[i].Kind) {
					t.Fatalf("%s(seed=%d): kind %v outside the constructor's set", c.name, seed, a[i].Kind)
				}
			}
		}
	}
}

// TestSeededSchedulesPinned pins the schedules the seeded constructors
// derive for seeds 1–20 (horizon 100, at most 4 events): a failed chaos run
// is replayed from its logged seed, so a refactor of the constructors must
// not move a single tick or kind.
func TestSeededSchedulesPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		make func(seed, horizon int64, maxEvents int) *Injector
		want []string // seed 1 first
	}{
		{"NewSeeded", NewSeeded, []string{
			"[{20 delay} {36 panic}]",
			"[{27 cancel} {37 panic} {20 delay}]",
			"[{62 panic} {48 delay}]",
			"[{5 cancel} {83 panic} {46 delay}]",
			"[{45 cancel} {10 panic} {37 panic}]",
			"[{34 delay}]",
			"[{5 delay} {4 delay} {6 delay} {83 panic}]",
			"[{18 panic} {65 delay} {33 cancel}]",
			"[{7 delay}]",
			"[{15 panic} {37 alloc-fail} {55 panic}]",
			"[{46 panic} {81 alloc-fail}]",
			"[{8 delay} {38 delay} {81 panic} {80 delay}]",
			"[{22 alloc-fail} {28 cancel} {49 cancel} {45 panic}]",
			"[{95 delay} {15 cancel} {91 cancel}]",
			"[{97 cancel} {72 delay}]",
			"[{24 alloc-fail} {67 delay} {25 cancel} {26 cancel}]",
			"[{14 alloc-fail} {12 delay} {19 alloc-fail} {78 delay}]",
			"[{89 delay} {81 delay} {42 delay}]",
			"[{71 panic}]",
			"[{58 cancel}]",
		}},
		{"NewSeededLinks", NewSeededLinks, []string{
			"[{20 alloc-fail} {36 cancel}]",
			"[{27 cancel} {37 panic} {20 delay}]",
			"[{62 cancel} {48 alloc-fail}]",
			"[{5 cancel} {83 panic} {46 alloc-fail}]",
			"[{45 link-drop} {10 panic} {37 cancel}]",
			"[{34 alloc-fail}]",
			"[{5 alloc-fail} {4 link-delay} {6 link-delay} {83 link-drop}]",
			"[{18 panic} {65 link-delay} {33 link-drop}]",
			"[{7 alloc-fail}]",
			"[{15 cancel} {37 link-delay} {55 cancel}]",
			"[{46 cancel} {81 delay}]",
			"[{8 delay} {38 link-delay} {81 panic} {80 delay}]",
			"[{22 alloc-fail} {28 cancel} {49 cancel} {45 panic}]",
			"[{95 alloc-fail} {15 link-drop} {91 link-drop}]",
			"[{97 link-drop} {72 link-delay}]",
			"[{24 link-delay} {67 link-delay} {25 link-drop} {26 cancel}]",
			"[{14 delay} {12 link-delay} {19 delay} {78 alloc-fail}]",
			"[{89 link-delay} {81 alloc-fail} {42 alloc-fail}]",
			"[{71 link-drop}]",
			"[{58 panic}]",
		}},
		{"NewSeededDisk", NewSeededDisk, []string{
			"[{91 disk-close-fail} {49 disk-short-write}]",
			"[{52 disk-write-fail} {50 disk-write-fail} {63 disk-close-fail}]",
			"[{30 panic} {67 disk-short-write}]",
			"[{83 disk-close-fail} {46 panic} {90 disk-read-fail}]",
			"[{10 disk-close-fail} {37 panic} {16 disk-close-fail}]",
			"[{87 cancel}]",
			"[{4 disk-read-fail} {99 disk-short-write} {86 delay} {17 disk-close-fail}]",
			"[{6 disk-short-write} {33 disk-read-fail} {15 disk-close-fail}]",
			"[{39 disk-write-fail}]",
			"[{37 disk-short-write} {55 disk-write-fail} {86 disk-close-fail}]",
			"[{81 disk-short-write} {83 disk-read-fail}]",
			"[{99 disk-short-write} {55 disk-short-write} {98 alloc-fail} {87 disk-close-fail}]",
			"[{57 panic} {8 disk-short-write} {4 disk-read-fail} {64 disk-short-write}]",
			"[{15 disk-read-fail} {91 disk-close-fail} {72 disk-write-fail}]",
			"[{32 disk-write-fail} {51 panic}]",
			"[{29 cancel} {87 disk-write-fail} {26 disk-close-fail} {13 disk-short-write}]",
			"[{57 cancel} {67 panic} {45 disk-read-fail} {71 disk-short-write}]",
			"[{11 disk-read-fail} {71 alloc-fail} {19 panic}]",
			"[{54 alloc-fail}]",
			"[{12 disk-short-write}]",
		}},
	} {
		for i, want := range c.want {
			seed := int64(i + 1)
			if got := fmt.Sprint(c.make(seed, 100, 4).Events()); got != want {
				t.Errorf("%s(seed=%d) = %s, want %s", c.name, seed, got, want)
			}
		}
	}
}

// TestEventsReturnsACopy: mutating the slice Events returns must not alter
// the injector's schedule — chaos harnesses log and reslice it freely.
func TestEventsReturnsACopy(t *testing.T) {
	inj := New([]Event{{Tick: 2, Kind: AllocFail}})
	got := inj.Events()
	got[0] = Event{Tick: 99, Kind: Panic}
	again := inj.Events()
	if again[0].Tick != 2 || again[0].Kind != AllocFail {
		t.Fatalf("Events() exposed internal state: schedule became %v", again)
	}
	if err := inj.Step(); err != nil {
		t.Fatalf("tick 1 fired unexpectedly: %v", err)
	}
	if err := inj.Step(); err == nil {
		t.Fatal("the original schedule no longer fires at tick 2")
	}
}

// fakeTicker counts Now reads, standing in for obs.FakeClock.
type fakeTicker struct{ reads int }

func (f *fakeTicker) Now() time.Time { f.reads++; return time.Unix(0, int64(f.reads)) }

// TestWithClockReplacesSleeps: with a clock injected, Delay and LinkDelay
// events read virtual time instead of sleeping — the schedule stays fast
// and the clock records exactly one read per delay event.
func TestWithClockReplacesSleeps(t *testing.T) {
	clock := &fakeTicker{}
	inj := New([]Event{{Tick: 1, Kind: Delay}, {Tick: 2, Kind: LinkDelay}}).
		WithDelay(time.Hour). // a real sleep here would hang the test
		WithClock(clock)
	start := time.Now()
	if err := inj.Step(); err != nil {
		t.Fatal(err)
	}
	if err := inj.LinkStep(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Fatalf("delay events slept for real (%v) despite the injected clock", elapsed)
	}
	if clock.reads != 2 {
		t.Fatalf("clock read %d times, want 2 (one per delay event)", clock.reads)
	}
}

// TestLinkOrdinalSchedule: NewLinkSchedule events fire on the n-th LinkStep
// call regardless of interleaved row-path Step traffic, and row-path calls
// can never absorb them.
func TestLinkOrdinalSchedule(t *testing.T) {
	inj := NewLinkSchedule([]Event{{Tick: 2, Kind: LinkDrop}})
	for i := 0; i < 100; i++ {
		if err := inj.Step(); err != nil {
			t.Fatalf("row step %d fired a link-ordinal event: %v", i, err)
		}
	}
	if err := inj.LinkStep(); err != nil {
		t.Fatalf("link ordinal 1 fired: %v", err)
	}
	err := inj.LinkStep()
	var fe *Error
	if !errors.As(err, &fe) || fe.Kind != LinkDrop {
		t.Fatalf("link ordinal 2: got %v, want a LinkDrop *fault.Error", err)
	}
	if err := inj.LinkStep(); err != nil {
		t.Fatalf("link ordinal 3 fired again: %v", err)
	}
	if inj.LinkTicks() != 3 {
		t.Fatalf("LinkTicks() = %d, want 3", inj.LinkTicks())
	}
}

// TestNilInjectorIsInert: the executor's disabled path calls through nil.
func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if err := inj.Step(); err != nil {
		t.Fatal(err)
	}
	if inj.Ticks() != 0 || inj.Events() != nil {
		t.Fatal("nil injector is not inert")
	}
}
