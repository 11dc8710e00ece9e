package wgrap

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/experiments"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/answers.txt from this tree's answers")

// goldenPath is the committed file TestGoldenAnswers compares with.
var goldenPath = filepath.Join("testdata", "golden", "answers.txt")

// timedCell matches a cell written by the experiments' duration format.
var timedCell = regexp.MustCompile(`^[0-9]+\.[0-9]{3}s$`)

// TestGoldenAnswers pins the reproduction's answers in one committed file:
//
//   - every table of the quick experiment grid (wgrap-experiments -quick
//     -run all, seed 1), with the cells that read the wall clock masked as
//     <time>: durations, and Figure 12's budget checkpoints, which are the
//     best score reached by a given wall-clock time;
//   - the six methods on the generated DB 2008 conference at seeds 1, 4 and
//     9, as wgrap-assign -method M -seed S builds them (scale 0.1, δp=3,
//     minimum workload, ω=10), with Score, AverageCoverage, LowestCoverage
//     and the optimality ratio at %.17g and every group.
//
// A mismatch lists the moved lines. go test -run '^TestGoldenAnswers$'
// -update rewrites the file; a rewrite is a change of test data, and every
// moved line needs a reason.
func TestGoldenAnswers(t *testing.T) {
	got := goldenAnswers(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	moved := 0
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g == w {
			continue
		}
		if moved++; moved <= 10 {
			t.Errorf("line %d:\n  golden: %s\n  now:    %s", i+1, w, g)
		}
	}
	t.Fatalf("%d lines moved from %s", moved, goldenPath)
}

// goldenAnswers renders the answers TestGoldenAnswers pins.
func goldenAnswers(t *testing.T) []byte {
	var b bytes.Buffer
	fmt.Fprintln(&b, "# wgrap-experiments -quick -run all -seed 1; wall-clock cells read <time>")
	cfg := experiments.Config{Seed: 1, Quick: true}
	for _, r := range experiments.Registry() {
		res, err := r.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		for _, tab := range res.Tables {
			for c, col := range tab.Columns {
				clock := r.Name == "figure12" && strings.HasSuffix(col, "% budget")
				for _, row := range tab.Rows {
					if clock || timedCell.MatchString(row[c]) {
						row[c] = "<time>"
					}
				}
			}
		}
		b.WriteString(res.String())
	}

	fmt.Fprintln(&b, "# wgrap-assign -method M -seed S: DB 2008, scale 0.1, δp=3, minimum workload, ω=10")
	methods := []Method{MethodSDGASRA, MethodSDGA, MethodGreedy, MethodBRGG, MethodStableMatching, MethodPairILP}
	for _, seed := range []int64{1, 4, 9} {
		d, err := corpus.NewGenerator(corpus.Config{Scale: 0.1, Seed: seed}).Dataset(corpus.Databases, 2008)
		if err != nil {
			t.Fatal(err)
		}
		in := NewInstance(d.Papers, d.Reviewers, 3, 0)
		for _, m := range methods {
			s, err := NewSolver(in, WithMethod(m), WithOmega(10), WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Solve(context.Background())
			if err != nil {
				t.Fatalf("%s seed %d: %v", m, seed, err)
			}
			fmt.Fprintf(&b, "%s seed=%d papers=%d reviewers=%d workload=%d score=%.17g average=%.17g lowest=%.17g optimality=%.17g\n",
				m, seed, in.NumPapers(), in.NumReviewers(), s.Instance().Workload,
				res.Score, res.AverageCoverage, res.LowestCoverage, OptimalityRatio(in, res.Assignment))
			groups := make([]string, len(res.Assignment.Groups))
			for p, g := range res.Assignment.Groups {
				groups[p] = strings.Trim(strings.Join(strings.Fields(fmt.Sprint(g)), ","), "[]")
			}
			fmt.Fprintf(&b, "%s seed=%d groups=%s\n", m, seed, strings.Join(groups, " "))
		}
	}
	return b.Bytes()
}
