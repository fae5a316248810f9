package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"slices"
	"time"
)

// runAA runs the untraced set twice in one invocation — the second time in
// reverse workload order — and prints, per workload and metric, how far
// the second set is from the first as a share of the first, against the
// metric's bound. Two sets of the same commit that disagree by more than a
// bound mean the bound cannot tell a regression from noise: that is an
// error.
func runAA(ctx context.Context, ws []*workload, seed int64, d time.Duration, out io.Writer) error {
	sets := [2]map[string]*runResult{{}, {}}
	for i := range sets {
		order := slices.Clone(ws)
		if i == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			res, err := runUntraced(ctx, w, seed, d)
			if err != nil {
				return err
			}
			if res.failed > 0 {
				return fmt.Errorf("workload %s: %d of %d ops failed", w.name, res.failed, res.attempted)
			}
			sets[i][w.name] = res
			// Hand the finished workload's heap back, so the next one's
			// live_heap_mb does not depend on the order.
			debug.FreeOSMemory()
		}
	}
	breaches := 0
	fmt.Fprintf(out, "%-12s %-20s %14s %14s %8s %8s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range ws {
		for _, m := range endToEnd {
			a, b := sets[0][w.name].metrics[m.name], sets[1][w.name].metrics[m.name]
			diff := math.Abs(b-a) / a
			verdict := ""
			if diff > m.bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(out, "%-12s %-20s %14.4f %14.4f %7.2f%% %7.2f%%%s\n", w.name, m.name, a, b, 100*diff, 100*m.bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metrics differ between two sets of the same commit by more than their bound", breaches)
	}
	return nil
}
