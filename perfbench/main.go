// Command perfbench is the repository benchmark. It builds the real
// wgrap-serve daemon, starts it as a child process with durable tenants,
// drives it over HTTP through the client package from one process (at most
// two request goroutines, so at most two connections), checks every
// returned assignment, and prints one line per metric,
//
//	<workload> <metric> <value> <unit> n=<samples>
//
// followed by one JSON object per workload with the keys correct,
// attempted, failed and metrics.
//
// Run it from the repository root through its wrapper, which builds the
// benchmark with its build cache under .bench_build/:
//
//	bash perfbench/run.sh --workload cold-dense --seed 1 --seconds 20 --trace 0
//
// The workloads (see README.md for why each exists):
//
//   - cold-dense: repeated cold solves of a dense instance (uniform topics,
//     no candidate cap): the profit fill and dense transport do the work.
//   - cold-sparse: repeated cold solves under a candidate cap (Zipf-skewed
//     topics): candidate lists, sparse fill and sparse transport.
//   - edit-stream: deadline-rush tracks over sixteen seeded conferences,
//     replayed closed-loop on a fresh durable tenant per pass: journaled
//     edits and warm resolves.
//   - view-heavy: an open loop of view reads beside a writer of edit
//     batches and async resolves: view encoding and HTTP next to
//     background writes.
//
// Without -trace the run reports the end-to-end metrics declared in
// BENCHMARK.json. Every latency and set-up time is scaled to a reference
// machine speed by a fixed probe timed next to the measured units (see
// probe.go); the wall-clock numbers are printed as # notes. With -trace 1
// it replays a prefix of the same ops at each depth of the stack (HTTP,
// the in-process tenant registry, the durable Solver, the bare cra.Session,
// and for cold solves a stage loop built from the topics, engine and flow
// layers) and reports each layer's self time instead. -compare A B applies
// the BENCHMARK.json bounds to two files written with -out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := cli(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// buildDir holds everything the benchmark builds or writes, relative to
// the repository root.
const buildDir = ".bench_build"

// result is the JSON object printed after each workload.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of an -out file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func cli(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cold-dense, cold-sparse, edit-stream or view-heavy (empty runs all four in turn)")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Int("seconds", 20, "measurement window per workload, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant: per-layer metrics instead of end-to-end ones")
	outPath := fs.String("out", "", "append each workload's result as one JSON line to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two -out files instead of running: perfbench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare takes two result files")
			return 2
		}
		ok, err := compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: -trace takes 0 or 1 and -seconds a positive count")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		selected = []workload{w}
	}

	// Building the daemon is excluded from every metric.
	bin, err := buildServer(".", filepath.Join(buildDir, "bin"))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work := filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(work)
	cfg := config{
		serverBin: bin, work: work, spansDir: buildDir,
		seed: *seed, window: time.Duration(*seconds) * time.Second,
		sc: fullScale, log: stdout,
	}
	code := 0
	for _, w := range selected {
		r, err := runWorkload(ctx, cfg, w, *trace == 1)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		res := r.result()
		for _, e := range r.t.errs {
			fmt.Fprintf(stderr, "perfbench: %s: %s\n", w.name, e)
		}
		if !res.Correct {
			code = 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if *outPath != "" {
			if err := appendRecord(*outPath, record{Workload: w.name, Seed: *seed, Trace: *trace == 1, result: res}); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
		}
	}
	return code
}

func (r *run) result() result {
	res := result{
		Correct:   r.t.failed == 0,
		Attempted: r.t.attempted,
		Failed:    r.t.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range r.out {
		res.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	return res
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
