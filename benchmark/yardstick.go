package main

import (
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// The yardstick. The benchmark runs on a few cores of a shared host whose
// speed drifts up to twofold over minutes: process CPU time equals wall
// time throughout, no steal is reported, a pointer chase through 32 MB
// keeps its pace — the instructions just run slower, as they do when
// another tenant has the sibling hyperthread. Ten runs of one commit then
// spread 25–35 % on every timing, whatever statistic a run takes over its
// own samples.
//
// So the callers run a fixed piece of work between reads — a miniature row
// pipeline in the benchmark's own files: box rows into []any, group them
// through a map on an encoded string key, sort the groups — and every
// timing is divided by how slow that ran nearby. Allocation-heavy Go of the
// engine's own kind was chosen because it slows as the engine does: over 12
// runs of each workload, per template, log(query time) followed
// log(yardstick time) with slope 0.9–1.4 and 2–8 % left over when the
// slope is taken as 1. An allocation-free hash aggregation in L2 slowed
// half as much as the engine and left 6–17 %; a yardstick ten times the
// size, or one with a group per row, did no better than this one. What is
// left over leans one way: the engine slows a little more than the
// yardstick does (timings divided by the plain slowdown still rose with it,
// by its 0.0th to 0.6th power over the five workloads and twenty runs of
// each), so the slowdown is raised to yardstickSensitivity, the middle of
// that, which took the widest spread of those runs from 20 % to 12 %. The
// yardstick never changes with the program under test, so both sides of a
// comparison are scaled by the same thing, and a change that speeds the
// engine up does not speed it up.
//
// A time at nominal speed reads "milliseconds on a machine where the
// yardstick takes yardstickNominal": the reference box in a quiet hour, one
// caller.
const (
	yardstickNominal = 80 * time.Microsecond
	// yardstickSensitivity is the power of the yardstick's slowdown by
	// which the engine slows.
	yardstickSensitivity = 1.2
	yardstickRows        = 400
	yardstickGroups      = 96
	// yardstickShare is the part of a caller's time that goes to the
	// yardstick: one sixth costs a sixth of the samples and gives some
	// hundred yardstick runs per turn.
	yardstickShare = 6
)

type yardstickGroup struct {
	key   string
	count int64
	sum   float64
}

// yardstick is one caller's instance. spent and runs only grow; a span of
// the run is measured by the difference between two readings.
type yardstick struct {
	spent time.Duration
	runs  int
	sink  int
}

// run does the fixed work once.
func (y *yardstick) run() {
	start := time.Now()
	rows := make([][]any, 0, yardstickRows)
	for i := 0; i < yardstickRows; i++ {
		k := i * 7919 % yardstickGroups
		rows = append(rows, []any{int64(k), "label-" + strconv.Itoa(k), float64(i % 1000)})
	}
	groups := make(map[string]*yardstickGroup)
	var buf []byte
	for _, r := range rows {
		buf = strconv.AppendInt(buf[:0], r[0].(int64), 10)
		buf = append(buf, 0)
		buf = append(buf, r[1].(string)...)
		g := groups[string(buf)]
		if g == nil {
			g = &yardstickGroup{key: string(buf)}
			groups[g.key] = g
		}
		g.count++
		g.sum += r[2].(float64)
	}
	out := make([]*yardstickGroup, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	y.sink += len(out)
	y.spent += time.Since(start)
	y.runs++
}

// runFor runs the yardstick for about d.
func (y *yardstick) runFor(d time.Duration) {
	for until := y.spent + d; y.spent < until; {
		y.run()
	}
}

// reading is a yardstick's counters at one moment.
type reading struct {
	spent time.Duration
	runs  int
}

func (y *yardstick) read() reading { return reading{y.spent, y.runs} }

// slowdown is how many times slower than at nominal speed the engine ran
// between two readings, going by the yardstick; 1 when the yardstick did
// not run between them.
func slowdown(from, to reading) float64 {
	if to.runs == from.runs {
		return 1
	}
	per := float64(to.spent-from.spent) / float64(to.runs-from.runs)
	return math.Pow(per/float64(yardstickNominal), yardstickSensitivity)
}

// yardstickAllocMB measures what one yardstick run allocates, so that
// alloc_mb_per_query can leave it out. It is called while nothing else
// runs.
func yardstickAllocMB() float64 {
	const n = 64
	var y yardstick
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		y.run()
	}
	runtime.ReadMemStats(&after)
	return mb(after.TotalAlloc-before.TotalAlloc) / n
}
