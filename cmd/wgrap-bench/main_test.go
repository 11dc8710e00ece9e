package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro/internal/flow
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTransportSolve/dijkstra-200x400-8         	      10	   5233623 ns/op	  492745 B/op	     230 allocs/op
BenchmarkTransportSolve/legacy-200x400-8           	      10	 508076954 ns/op	55548472 B/op	    8989 allocs/op
BenchmarkProfitMatrixCI-8                          	       3	   2345678 ns/op	      16 B/op	       1 allocs/op
BenchmarkSolveHugeScale/solve_huge_scale_sparse-8  	       1	28348720444 ns/op	         0.7534 avg-coverage
BenchmarkScorerTopK-8                              	     100	  13128524 ns/op	     479 B/op	       0 allocs/op
BenchmarkBuildCandidates/single-worker-8           	      50	  17387163 ns/op	  489944 B/op	      66 allocs/op
BenchmarkBuildCandidates/multicore-8               	      50	  10206467 ns/op	  524543 B/op	      90 allocs/op
BenchmarkFigure15TopK-8                            	       1	 987654321 ns/op
BenchmarkSDGAConference-8                          	       2	 123456789 ns/op
PASS
`

func TestParseBenchStripsProcSuffix(t *testing.T) {
	res, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	d, ok := res["BenchmarkTransportSolve/dijkstra-200x400"]
	if !ok {
		t.Fatalf("dijkstra benchmark missing; got %v", res)
	}
	if d.Iterations != 10 || math.Abs(d.NsPerOp-5233623) > 0.5 || math.Abs(d.AllocsPerOp-230) > 0.5 {
		t.Fatalf("unexpected result %+v", d)
	}
	if _, ok := res["BenchmarkSDGAConference"]; !ok {
		t.Fatal("benchmark without allocs columns missing")
	}
}

func writeSample(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(p, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunWritesSnapshot(t *testing.T) {
	in := writeSample(t)
	out := filepath.Join(t.TempDir(), "snap.json")
	var buf strings.Builder
	if err := run([]string{"-in", in, "-out", out, "-note", "test", "-candidate-cap", "64"}, nil, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Note != "test" {
		t.Fatalf("note = %q", snap.Note)
	}
	if snap.CandidateCap != 64 {
		t.Fatalf("candidate cap = %d, want 64", snap.CandidateCap)
	}
	// Default -keep records the transport, profit-matrix, solve-scale and
	// candidate-stage benchmarks only.
	if len(snap.Benchmarks) != 7 {
		t.Fatalf("kept %d benchmarks, want 7: %v", len(snap.Benchmarks), snap.Benchmarks)
	}
	for _, name := range []string{
		"BenchmarkSolveHugeScale/solve_huge_scale_sparse",
		"BenchmarkScorerTopK",
		"BenchmarkBuildCandidates/single-worker",
		"BenchmarkBuildCandidates/multicore",
	} {
		if _, ok := snap.Benchmarks[name]; !ok {
			t.Fatalf("%s not kept by the default -keep", name)
		}
	}
	for _, name := range []string{"BenchmarkSDGAConference", "BenchmarkFigure15TopK"} {
		if _, ok := snap.Benchmarks[name]; ok {
			t.Fatalf("-keep did not filter %s", name)
		}
	}
}

func writeBaseline(t *testing.T, ns float64) string {
	t.Helper()
	snap := Snapshot{Benchmarks: map[string]Result{
		"BenchmarkTransportSolve/dijkstra-200x400": {Iterations: 10, NsPerOp: ns},
	}}
	data, _ := json.Marshal(snap)
	p := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGatePassesWithinBudget(t *testing.T) {
	in := writeSample(t)
	// Baseline slightly faster than current (5233623 ns): 10% slower is
	// within the 20% budget.
	base := writeBaseline(t, 5233623/1.1)
	var buf strings.Builder
	if err := run([]string{"-in", in, "-baseline", base}, nil, &buf); err != nil {
		t.Fatalf("gate failed within budget: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "ok") {
		t.Fatalf("missing gate report:\n%s", buf.String())
	}
}

func TestGateFailsBeyondBudget(t *testing.T) {
	in := writeSample(t)
	// Baseline twice as fast as current: a 100% regression must fail.
	base := writeBaseline(t, 5233623/2)
	var buf strings.Builder
	err := run([]string{"-in", in, "-baseline", base}, nil, &buf)
	if err == nil {
		t.Fatalf("gate passed a 2x regression:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Fatalf("missing regression report:\n%s", buf.String())
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	in := writeSample(t)
	snap := Snapshot{Benchmarks: map[string]Result{
		"BenchmarkTransportSolve/dijkstra-999x999": {Iterations: 1, NsPerOp: 1},
	}}
	data, _ := json.Marshal(snap)
	base := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(base, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run([]string{"-in", in, "-baseline", base}, nil, &buf); err == nil {
		t.Fatal("gate passed with its benchmark missing from the run")
	}
}

func TestGateRejectsEmptyGateMatch(t *testing.T) {
	in := writeSample(t)
	base := writeBaseline(t, 5233623)
	var buf strings.Builder
	if err := run([]string{"-in", in, "-baseline", base, "-gate", "NoSuchBenchmark"}, nil, &buf); err == nil {
		t.Fatal("empty gate selection accepted")
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	if err := run(nil, strings.NewReader("no benchmarks here"), &strings.Builder{}); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestGateNormalizedByReference(t *testing.T) {
	in := writeSample(t)
	// Baseline from a machine 2x faster across the board: raw ns/op of the
	// gated benchmark is half the current run's, which a raw gate would call
	// a 100% regression — but normalized by the legacy reference (also 2x
	// faster in the baseline) the ratio is 1.0 and the gate must pass.
	snap := Snapshot{Benchmarks: map[string]Result{
		"BenchmarkTransportSolve/dijkstra-200x400": {Iterations: 1, NsPerOp: 5233623 / 2},
		"BenchmarkTransportSolve/legacy-200x400":   {Iterations: 1, NsPerOp: 508076954 / 2},
	}}
	data, _ := json.Marshal(snap)
	base := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(base, data, 0o644); err != nil {
		t.Fatal(err)
	}
	norm := []string{"-in", in, "-baseline", base, "-normalize-by", "BenchmarkTransportSolve/legacy-200x400"}
	var buf strings.Builder
	if err := run(norm, nil, &buf); err != nil {
		t.Fatalf("normalized gate failed across machine speeds: %v\n%s", err, buf.String())
	}
	// The same baseline without normalization must trip the raw gate.
	var buf2 strings.Builder
	if err := run([]string{"-in", in, "-baseline", base}, nil, &buf2); err == nil {
		t.Fatal("raw gate ignored a 2x ns/op difference")
	}
	// A genuine regression (dijkstra slower, reference unchanged) must still
	// fail under normalization.
	snap.Benchmarks["BenchmarkTransportSolve/dijkstra-200x400"] = Result{Iterations: 1, NsPerOp: 5233623 / 4}
	snap.Benchmarks["BenchmarkTransportSolve/legacy-200x400"] = Result{Iterations: 1, NsPerOp: 508076954}
	data, _ = json.Marshal(snap)
	if err := os.WriteFile(base, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf3 strings.Builder
	if err := run(norm, nil, &buf3); err == nil {
		t.Fatalf("normalized gate passed a genuine 4x regression:\n%s", buf3.String())
	}
}

func TestGateNormalizeByMissingReference(t *testing.T) {
	in := writeSample(t)
	base := writeBaseline(t, 5233623)
	var buf strings.Builder
	err := run([]string{"-in", in, "-baseline", base, "-normalize-by", "BenchmarkTransportSolve/legacy-200x400"}, nil, &buf)
	if err == nil {
		t.Fatal("missing normalize-by reference accepted")
	}
}

func TestMinSpeedupAssertion(t *testing.T) {
	in := writeSample(t)
	// legacy (508ms) vs dijkstra (5.2ms) in the same run: ~97x speedup.
	pass := []string{"-in", in,
		"-speedup-num", "BenchmarkTransportSolve/legacy-200x400",
		"-speedup-den", "BenchmarkTransportSolve/dijkstra-200x400",
		"-min-speedup", "50"}
	var buf strings.Builder
	if err := run(pass, nil, &buf); err != nil {
		t.Fatalf("speedup assertion failed at 50x when the run shows ~97x: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "ok") {
		t.Fatalf("missing speedup report:\n%s", buf.String())
	}
	fail := []string{"-in", in,
		"-speedup-num", "BenchmarkTransportSolve/legacy-200x400",
		"-speedup-den", "BenchmarkTransportSolve/dijkstra-200x400",
		"-min-speedup", "200"}
	var buf2 strings.Builder
	if err := run(fail, nil, &buf2); err == nil {
		t.Fatalf("speedup assertion passed at 200x when the run shows ~97x:\n%s", buf2.String())
	}
	// Missing operands and missing benchmarks are hard errors.
	if err := run([]string{"-in", in, "-min-speedup", "2"}, nil, &strings.Builder{}); err == nil {
		t.Fatal("missing -speedup-num/-speedup-den accepted")
	}
	if err := run([]string{"-in", in, "-speedup-num", "BenchmarkNope", "-speedup-den", "BenchmarkTransportSolve/dijkstra-200x400", "-min-speedup", "2"}, nil, &strings.Builder{}); err == nil {
		t.Fatal("missing speedup benchmark accepted")
	}
}
