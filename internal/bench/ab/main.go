// Command ab compares the end-to-end benchmark (BENCHMARK.json) of the work
// tree, or of a second revision, against a base revision, A/A first:
// `make bench-ab BASE=<rev> [CHANGE=<rev>]`.
//
//	go run ./internal/bench/ab -base HEAD~1 [-change HEAD] [-w olap_eager,serve_wide] [-pairs 5] [-seconds 20] [-seed 1]
//
// It exports BASE — and CHANGE, when given — with `git archive` into a
// temporary directory, removed on exit, and builds ./benchmark in BASE's tree
// twice and in the change's (the work tree unless CHANGE names a revision)
// once. For each workload it runs the A/A pairs (the two builds of BASE) and
// then the A/B pairs (BASE against the change), one process at a time,
// alternating which side of a pair runs first, and reads only the records the
// runs write with -json. Per workload and end-to-end metric it prints BASE's
// median and quartiles, the change's median, their ratio, the A/B pairs the
// change won, and the A/A band: where a ratio of two medians of this many runs
// of one program falls by chance, the central 95 % of it over random splits of
// the A/A runs in two. A ratio of medians inside that band is "within A/A". It
// gates nothing and writes nothing into any tree.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
)

func main() {
	// An interrupt kills the running benchmark and returns through run, so
	// the temporary directory is removed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(1)
	}
}

// metric is one end-to-end metric BENCHMARK.json declares.
type metric struct {
	Name   string `json:"name"`
	Better string `json:"better"` // "lower" or "higher"
}

// record is the part of a benchmark -json file the comparison reads.
type record struct {
	Workloads map[string]struct {
		Failed  int `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"workloads"`
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ab", flag.ContinueOnError)
	base := fs.String("base", "", "revision to compare the change against (required)")
	change := fs.String("change", "", "revision to measure against base (default: the work tree)")
	ws := fs.String("w", "", "comma-separated workloads (default: every workload BENCHMARK.json declares)")
	pairs := fs.Int("pairs", 5, "A/A pairs and A/B pairs per workload")
	seconds := fs.Float64("seconds", 20, "measured window of each run, in seconds")
	seed := fs.Int64("seed", 1, "the benchmark's -seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" || *pairs < 1 || *seconds <= 0 {
		return fmt.Errorf("usage: ab -base <rev> [-change <rev>] [-w workloads] [-pairs n>0] [-seconds s>0] [-seed n]")
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
	}
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		return err
	}
	names := strings.FieldsFunc(*ws, func(r rune) bool { return r == ',' })
	if len(names) == 0 {
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}

	tmp, err := os.MkdirTemp("", "bench-ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	trees := sides(tmp, *change)
	if err := export(ctx, *base, trees["A"]); err != nil {
		return err
	}
	if *change != "" {
		if err := export(ctx, *change, trees["B"]); err != nil {
			return err
		}
	}
	// Each side runs in the tree it was built from. An exported tree has no
	// VCS metadata, so no side stamps any, and -trimpath keeps each tree's
	// directory out of its binary: at BASE=HEAD all three binaries are the
	// same bytes, where without it the work tree's build differs from BASE's
	// in its embedded paths and so in its layout.
	for side, dir := range trees {
		if err := command(ctx, dir, "go", "build", "-trimpath", "-buildvcs=false", "-o", filepath.Join(tmp, side), "./benchmark").Run(); err != nil {
			return fmt.Errorf("building ./benchmark for %s: %w", side, err)
		}
	}
	runOne := func(side, w string) (map[string]float64, error) {
		path := filepath.Join(tmp, "run.json")
		cmd := command(ctx, trees[side], filepath.Join(tmp, side), "-workload", w, "-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds), "-json", path)
		cmd.Stdout = io.Discard
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s -workload %s: %w", side, w, err)
		}
		var rec record
		buf, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(buf, &rec)
		}
		if err != nil {
			return nil, err
		}
		res, ok := rec.Workloads[w]
		if !ok {
			return nil, fmt.Errorf("%s wrote no result for %s", side, w)
		}
		if res.Failed > 0 {
			fmt.Fprintf(out, "warning: %s: %d operations failed in one run\n", w, res.Failed)
		}
		vals := map[string]float64{}
		for name, v := range res.Metrics {
			vals[name] = v.Value
		}
		return vals, nil
	}
	// runPairs runs n pairs of x and y, x first in the even pairs.
	runPairs := func(w, x, y string, n int) (xs, ys []map[string]float64, err error) {
		for i := 0; i < n; i++ {
			first, second := x, y
			if i%2 == 1 {
				first, second = y, x
			}
			got := map[string]map[string]float64{}
			for _, side := range []string{first, second} {
				if got[side], err = runOne(side, w); err != nil {
					return nil, nil, err
				}
			}
			xs, ys = append(xs, got[x]), append(ys, got[y])
		}
		return xs, ys, nil
	}

	against := "the work tree"
	if *change != "" {
		against = *change
	}
	fmt.Fprintf(out, "base %s against %s: %d A/A and %d A/B pairs of %gs, seed %d\n", *base, against, *pairs, *pairs, *seconds, *seed)
	for _, w := range names {
		a1, a2, err := runPairs(w, "A", "A2", *pairs)
		if err != nil {
			return err
		}
		as, bs, err := runPairs(w, "A", "B", *pairs)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\n== %s\n%-20s %12s %25s %12s %8s %6s %17s\n", w, "metric", "base median", "base q1..q3", "change", "ratio", "won", "A/A band")
		for _, m := range spec.EndToEnd {
			fmt.Fprintln(out, compare(m, a1, a2, as, bs))
		}
	}
	return nil
}

// sides is the tree each side is built and run in: BASE's export under tmp
// for A and A2, and for B the work tree, or CHANGE's export under tmp when
// change names a revision.
func sides(tmp, change string) map[string]string {
	base, b := filepath.Join(tmp, "base"), "."
	if change != "" {
		b = filepath.Join(tmp, "change")
	}
	return map[string]string{"A": base, "A2": base, "B": b}
}

// compare is one metric's line: BASE's median and quartiles over the A/B
// pairs, the change's median, the ratio of the medians, the pairs the change
// won, and the A/A band (band) — the spread of the same ratio of medians
// between two builds of one program — with the ratio judged against it.
func compare(m metric, a1, a2, as, bs []map[string]float64) string {
	col := func(runs []map[string]float64) []float64 {
		v := make([]float64, len(runs))
		for i, r := range runs {
			v[i] = r[m.Name]
		}
		return v
	}
	base, change := col(as), col(bs)
	won := 0
	for i := range base {
		if (m.Better == "lower" && change[i] < base[i]) || (m.Better == "higher" && change[i] > base[i]) {
			won++
		}
	}
	lo, hi := band(col(a1), col(a2))
	r := ratio(quantile(change, 0.5), quantile(base, 0.5))
	verdict := "within A/A"
	if r < lo || r > hi {
		verdict = "outside A/A"
	}
	return fmt.Sprintf("%-20s %12.4f %12.4f..%-12.4f %12.4f %8.4f %3d/%-2d [%.4f, %.4f] %s",
		m.Name, quantile(base, 0.5), quantile(base, 0.25), quantile(base, 0.75), quantile(change, 0.5), r, won, len(base), lo, hi, verdict)
}

// splits is how many random splits band draws.
const splits = 2000

// band is the central 95 % of the ratio of medians between two groups of the
// A/A runs x and y — runs of one program, both builds of BASE — over random
// splits of them into groups of len(x) and len(y) runs: how far apart the
// medians of this many runs of one program fall by chance, the statistic the
// A/B ratio is. The splits are seeded, so the same runs give the same band.
func band(x, y []float64) (lo, hi float64) {
	rng := rand.New(rand.NewPCG(1, 2))
	pool := append(slices.Clone(x), y...)
	rs := make([]float64, splits)
	for i := range rs {
		rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		rs[i] = ratio(quantile(pool[len(x):], 0.5), quantile(pool[:len(x)], 0.5))
	}
	return quantile(rs, 0.025), quantile(rs, 0.975)
}

// ratio is x/y, 1 when both are 0.
func ratio(x, y float64) float64 {
	if x == y {
		return 1
	}
	return x / y
}

// quantile is the q-quantile of v, interpolated between closest ranks.
func quantile(v []float64, q float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// export writes the tree of rev into dir: git archive, then tar.
func export(ctx context.Context, rev, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tarball := dir + ".tar"
	if err := command(ctx, ".", "git", "archive", "-o", tarball, rev).Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	return command(ctx, dir, "tar", "-xf", tarball).Run()
}

// command is name with args, run in dir until ctx ends, its errors on this
// process's.
func command(ctx context.Context, dir, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	return cmd
}
