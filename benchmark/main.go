// Command benchmark is the repository's performance benchmark: five named
// workloads over the group-by-before-join engine, end-to-end metrics from
// an untraced closed-loop run and per-layer metrics from a traced replay.
// BENCHMARK.json at the repository root declares what it prints; README.md
// says why each workload and metric exists.
//
//	go run ./benchmark -workload olap_eager -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -seed 1            # every workload, untraced
//	go run ./benchmark -seed 1 -trace 1   # every workload, traced
//	go run ./benchmark -aa                # two untraced sets, compared
//	go run ./benchmark -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	list     bool
	aa       bool
	jsonPath string
	outDir   string
}

func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all five)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for data and op-sequence generation")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured window per workload, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.BoolVar(&o.list, "list", false, "print the workload and metric names and exit")
	fs.BoolVar(&o.aa, "aa", false, "run the untraced set twice and compare each metric against its bound")
	fs.StringVar(&o.jsonPath, "json", "", "also write the stamped results to this file")
	fs.StringVar(&o.outDir, "out", "benchmark/out", "directory the traced run writes trace-<workload>.json into")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.aa && (o.trace == 1 || o.workload != "") {
		return nil, fmt.Errorf("-aa runs the whole untraced set: it takes neither -trace 1 nor -workload")
	}
	return o, nil
}

func run(ctx context.Context, args []string, out io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.list {
		printList(out)
		return nil
	}
	ws := workloads()
	if o.workload != "" {
		w, err := workloadNamed(o.workload)
		if err != nil {
			return err
		}
		ws = []*workload{w}
	}
	d := time.Duration(o.seconds * float64(time.Second))
	if o.aa {
		return runAA(ctx, ws, o.seed, d, out)
	}
	rec := newRecord(o)
	var last *runResult
	for _, w := range ws {
		var res *runResult
		if o.trace == 1 {
			res, err = runTraced(ctx, w, o.seed, d, o.outDir)
		} else {
			res, err = runUntraced(ctx, w, o.seed, d)
		}
		if err != nil {
			return err
		}
		printResult(out, res, declared(o.trace))
		rec.add(res)
		last = res
	}
	if o.jsonPath != "" {
		if err := rec.write(o.jsonPath); err != nil {
			return err
		}
	}
	// The last line is the machine-readable result. With one workload it
	// is that workload's; a multi-workload run repeats the final one, and
	// -json carries them all.
	return printResultLine(out, last, declared(o.trace))
}

// declared returns the metric set a run mode prints.
func declared(trace int) []metric {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

func printList(out io.Writer) {
	for _, w := range workloads() {
		fmt.Fprintf(out, "workload %s\n", w.name)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(out, "end_to_end %s %s\n", m.name, m.unit)
	}
	for _, m := range perLayer {
		fmt.Fprintf(out, "per_layer %s %s\n", m.name, m.unit)
	}
}

// printResult prints one workload's metrics by name, with units.
func printResult(out io.Writer, r *runResult, ms []metric) {
	fmt.Fprintf(out, "== %s: %d attempted, %d failed, %d read samples, slowdown %.3f by the yardstick\n", r.workload, r.attempted, r.failed, r.reads, r.slow)
	for _, m := range ms {
		fmt.Fprintf(out, "%-32s %14.4f %s\n", m.name, r.metrics[m.name], m.unit)
	}
}

// resultLine is the output contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) line(ms []metric) resultLine {
	l := resultLine{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(ms)),
	}
	for _, m := range ms {
		l.Metrics[m.name] = metricValue{Value: r.metrics[m.name], Unit: m.unit}
	}
	return l
}

func printResultLine(out io.Writer, r *runResult, ms []metric) error {
	buf, err := json.Marshal(r.line(ms))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", buf)
	return err
}

// record is the -json file: every workload's result, stamped with what is
// needed to compare it with another run.
type record struct {
	Commit     string                `json:"commit"`
	GoVersion  string                `json:"go_version"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	NumCPU     int                   `json:"nproc"`
	Seed       int64                 `json:"seed"`
	Seconds    float64               `json:"seconds"`
	Trace      int                   `json:"trace"`
	Workloads  map[string]resultLine `json:"workloads"`
	metrics    []metric
}

func newRecord(o *options) *record {
	return &record{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Workloads:  make(map[string]resultLine),
		metrics:    declared(o.trace),
	}
}

func (r *record) add(res *runResult) { r.Workloads[res.workload] = res.line(r.metrics) }

func (r *record) write(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// commit returns the VCS revision the binary was built from, "unknown"
// when the build carries none (a checkout that is not a repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
