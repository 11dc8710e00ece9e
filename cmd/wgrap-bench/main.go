// Command wgrap-bench turns `go test -bench` output into a benchmark JSON
// snapshot and gates CI on performance regressions: it parses the benchstat
// text format, records ns/op, B/op and allocs/op per benchmark, and — when a
// committed baseline is supplied — fails if any gated benchmark slowed down
// by more than the allowed fraction.
//
// CI usage (see .github/workflows/ci.yml):
//
//	go test -bench=. -benchtime=1x -run='^$' ./... | tee bench.txt
//	wgrap-bench -in bench.txt -out BENCH_PR4.json \
//	    -baseline BENCH_BASELINE.json \
//	    -gate 'BenchmarkTransportSolve/dijkstra|BenchmarkResolveAfterEdit/warm' \
//	    -max-regression 0.20
//
// Regenerate the baseline by pointing -out at BENCH_BASELINE.json on a quiet
// machine and committing the result.
//
// Besides parsing bench text, three live workload modes emit bench-format
// results directly: -concurrent (in-process mixed read/write serving),
// -serve (HTTP request latency over loopback) and -track FILE (replay a
// committed workload track from internal/track against any client backend,
// reporting per-op-kind latency percentiles — see testdata/tracks/).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wgrap-bench:", err)
		os.Exit(1)
	}
}

// Result is one benchmark's recorded metrics.
type Result struct {
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Snapshot is the JSON file layout.
type Snapshot struct {
	Note string `json:"note,omitempty"`
	// CandidateCap records the WithCandidateCap(k) setting the benchmark run
	// used (0 = dense): snapshots of sparse candidate-pruned runs are not
	// comparable to dense ones, so the cap is provenance the gate's reader
	// needs next to the numbers.
	CandidateCap int               `json:"candidate_cap,omitempty"`
	Benchmarks   map[string]Result `json:"benchmarks"`
}

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkTransportSolve/dijkstra-200x400-8  1  5233623 ns/op  492745 B/op  230 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

func parseBench(r io.Reader) (map[string]Result, error) {
	out := make(map[string]Result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, _ := strconv.Atoi(m[2])
		res := Result{Iterations: iters}
		res.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			res.BytesPerOp, _ = strconv.ParseFloat(m[4], 64)
		}
		if m[5] != "" {
			res.AllocsPerOp, _ = strconv.ParseFloat(m[5], 64)
		}
		out[m[1]] = res
	}
	return out, sc.Err()
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("wgrap-bench", flag.ContinueOnError)
	inPath := fs.String("in", "-", "bench text input file (- = stdin)")
	outPath := fs.String("out", "", "write the JSON snapshot to this file")
	keepPat := fs.String("keep", "TransportSolve|ProfitMatrixCI|ResolveAfterEdit|ResolveAfterWithdraw|ConcurrentMixed|ServeHTTP|TrackReplay|TransportStageSequencePaperScale|SolveColdPaperScale|SolveColdRepeated|SolveHugeScale|ScorerTopK|BuildCandidates", "regexp of benchmarks recorded in the snapshot")
	note := fs.String("note", "", "free-form note stored in the snapshot")
	candidateCap := fs.Int("candidate-cap", 0, "WithCandidateCap(k) setting of the benchmarked run, recorded in the snapshot for provenance (0 = dense)")
	baseline := fs.String("baseline", "", "baseline JSON to gate against (no gating when empty)")
	gatePat := fs.String("gate", "BenchmarkTransportSolve/dijkstra|BenchmarkResolveAfterEdit/warm", "regexp selecting the baseline benchmarks that gate")
	maxRegression := fs.Float64("max-regression", 0.20, "allowed fractional ns/op slowdown before failing")
	normalizeBy := fs.String("normalize-by", "", "benchmark whose ns/op divides both sides of the gate comparison (hardware-independent ratio gating)")
	speedupNum := fs.String("speedup-num", "", "benchmark expected to be SLOWER in a same-run speedup assertion (e.g. the single-CPU variant)")
	speedupDen := fs.String("speedup-den", "", "benchmark expected to be FASTER in a same-run speedup assertion (e.g. the sharded variant)")
	minSpeedup := fs.Float64("min-speedup", 0, "fail unless speedup-num's ns/op is at least this multiple of speedup-den's (0 disables)")
	concurrent := fs.Bool("concurrent", false, "run the live concurrent-serving workload instead of parsing bench text: readers spin on View/Progress while edit bursts drain through ResolveAsync")
	serveMode := fs.Bool("serve", false, "run the HTTP request-latency workload instead of parsing bench text: a real wgrap-serve handler on loopback driven through the remote client")
	trackPath := fs.String("track", "", "replay this workload track file instead of parsing bench text, reporting per-op-kind latency percentiles (see internal/track)")
	trackBackend := fs.String("backend", "mem://", "-track: backend URL to replay against (mem://, mem:///dir, http://host:port)")
	trackTenant := fs.String("tenant", "", "-track: tenant id override (default derives from the track name)")
	trackJSON := fs.String("track-json", "", "-track: write the full replay report (histograms, phases, accepted/rejected, final seq/objective) to this JSON file")
	sleepScale := fs.Float64("sleep-scale", 0, "-track: multiplier on the track's sleep ops (0 replays at full speed)")
	var phaseBudgets budgetFlags
	fs.Var(&phaseBudgets, "phase-budget", "-track: repeatable latency assertion [phase/]kind:p50=DUR,p99=DUR (e.g. deadline-rush/edit:p99=50ms); fails the run on violation")
	ccPapers := fs.Int("papers", 1000, "-concurrent/-serve: number of papers")
	ccReviewers := fs.Int("reviewers", 2000, "-concurrent/-serve: number of reviewers")
	ccTopics := fs.Int("topics", 40, "-concurrent/-serve: topic vector dimension")
	ccDelta := fs.Int("delta", 3, "-concurrent/-serve: reviewers per paper δp")
	ccReaders := fs.Int("readers", 4, "-concurrent: snapshot reader goroutines")
	ccResolves := fs.Int("resolves", 12, "-concurrent/-serve: warm re-solve cycles")
	ccBurst := fs.Int("edit-burst", 6, "-concurrent/-serve: edits coalesced per re-solve")
	srvViews := fs.Int("views", 50, "-serve: view reads sampled per cycle")
	maxReadP99 := fs.Duration("max-read-p99", 0, "-concurrent: fail when read p99 exceeds this while re-solves run (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var current map[string]Result
	var err error
	switch {
	case *concurrent:
		current, err = runConcurrent(stdout, concurrentConfig{
			papers: *ccPapers, reviewers: *ccReviewers, topics: *ccTopics, delta: *ccDelta,
			readers: *ccReaders, resolves: *ccResolves, editBurst: *ccBurst, maxReadP99: *maxReadP99,
		})
		if err != nil {
			return err
		}
	case *serveMode:
		current, err = runServe(stdout, serveConfig{
			papers: *ccPapers, reviewers: *ccReviewers, topics: *ccTopics, delta: *ccDelta,
			resolves: *ccResolves, editBurst: *ccBurst, views: *srvViews,
		})
		if err != nil {
			return err
		}
	case *trackPath != "":
		current, err = runTrack(stdout, trackConfig{
			path: *trackPath, backend: *trackBackend, tenant: *trackTenant,
			reportPath: *trackJSON, sleepScale: *sleepScale, budgets: phaseBudgets,
		})
		if err != nil {
			return err
		}
	default:
		in := stdin
		if *inPath != "" && *inPath != "-" {
			f, err := os.Open(*inPath)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		current, err = parseBench(in)
		if err != nil {
			return err
		}
	}
	if len(current) == 0 {
		return fmt.Errorf("no benchmark results found in input")
	}

	keep, err := regexp.Compile(*keepPat)
	if err != nil {
		return fmt.Errorf("bad -keep pattern: %w", err)
	}
	snap := Snapshot{Note: *note, CandidateCap: *candidateCap, Benchmarks: make(map[string]Result)}
	for name, res := range current {
		if keep.MatchString(name) {
			snap.Benchmarks[name] = res
		}
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d benchmark(s) to %s\n", len(snap.Benchmarks), *outPath)
	}

	if *minSpeedup > 0 || *speedupNum != "" || *speedupDen != "" {
		// Naming the benchmarks without a threshold (or vice versa) is a
		// misconfigured gate, not a no-op: fail loudly either way.
		if err := assertSpeedup(stdout, current, *speedupNum, *speedupDen, *minSpeedup); err != nil {
			return err
		}
	}
	if *baseline == "" {
		return nil
	}
	return gate(stdout, current, *baseline, *gatePat, *normalizeBy, *maxRegression)
}

// assertSpeedup compares two benchmarks measured in the SAME run and fails
// unless num (the variant expected to be slower, e.g. a single-CPU solve) is
// at least minSpeedup times slower than den (e.g. the sharded multi-core
// solve). Same-run comparison makes the assertion hardware-independent —
// both sides ran on the same machine moments apart.
func assertSpeedup(stdout io.Writer, current map[string]Result, num, den string, minSpeedup float64) error {
	if num == "" || den == "" {
		return fmt.Errorf("-min-speedup requires both -speedup-num and -speedup-den")
	}
	if minSpeedup <= 0 {
		return fmt.Errorf("-speedup-num/-speedup-den require a positive -min-speedup")
	}
	n, okN := current[num]
	d, okD := current[den]
	if !okN || !okD {
		return fmt.Errorf("speedup benchmarks missing from the current run (have %q: %v, %q: %v)", num, okN, den, okD)
	}
	if n.NsPerOp <= 0 || d.NsPerOp <= 0 {
		return fmt.Errorf("speedup benchmarks have non-positive ns/op")
	}
	ratio := n.NsPerOp / d.NsPerOp
	status := "ok"
	if ratio < minSpeedup {
		status = "FAIL"
	}
	fmt.Fprintf(stdout, "speedup %s / %s = %.2fx (want >= %.2fx)  %s\n", num, den, ratio, minSpeedup, status)
	if ratio < minSpeedup {
		return fmt.Errorf("speedup %.2fx below the required %.2fx", ratio, minSpeedup)
	}
	return nil
}

// gate compares the gated benchmarks of the baseline file against the current
// results and fails on missing benchmarks or ns/op regressions beyond
// maxRegression. With normalizeBy set, each side's ns/op is divided by that
// benchmark's ns/op from the same snapshot, so the comparison is a
// hardware-independent ratio (the CI runner and the baseline machine need
// not be equally fast — the frozen legacy solver serves as the local
// yardstick).
func gate(stdout io.Writer, current map[string]Result, baselinePath, gatePattern, normalizeBy string, maxRegression float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("bad baseline %s: %w", baselinePath, err)
	}
	gateRe, err := regexp.Compile(gatePattern)
	if err != nil {
		return fmt.Errorf("bad -gate pattern: %w", err)
	}
	curScale, baseScale := 1.0, 1.0
	if normalizeBy != "" {
		cur, okCur := current[normalizeBy]
		b, okBase := base.Benchmarks[normalizeBy]
		if !okCur || !okBase {
			return fmt.Errorf("normalize-by benchmark %q missing from %s", normalizeBy,
				map[bool]string{true: "the baseline", false: "the current run"}[okCur])
		}
		if cur.NsPerOp <= 0 || b.NsPerOp <= 0 {
			return fmt.Errorf("normalize-by benchmark %q has non-positive ns/op", normalizeBy)
		}
		curScale, baseScale = cur.NsPerOp, b.NsPerOp
	}
	gated := 0
	var failures []string
	for name, b := range base.Benchmarks {
		if !gateRe.MatchString(name) || name == normalizeBy {
			continue
		}
		gated++
		cur, ok := current[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: gated benchmark missing from current run", name))
			continue
		}
		ratio := (cur.NsPerOp / curScale) / (b.NsPerOp / baseScale)
		status := "ok"
		if ratio > 1+maxRegression {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f ns/op (normalized %.0f%% slower, budget %.0f%%)",
				name, cur.NsPerOp, b.NsPerOp, (ratio-1)*100, maxRegression*100))
		}
		fmt.Fprintf(stdout, "gate %-60s %12.0f ns/op  baseline %12.0f ns/op  normalized ratio %.2f  %s\n",
			name, cur.NsPerOp, b.NsPerOp, ratio, status)
	}
	if gated == 0 {
		return fmt.Errorf("no baseline benchmark matches gate pattern %q", gatePattern)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(stdout, "FAIL:", f)
		}
		return fmt.Errorf("%d benchmark regression(s) beyond the %.0f%% budget", len(failures), maxRegression*100)
	}
	return nil
}
