package main

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinyScale runs every workload at a size that finishes in about a second.
var tinyScale = scale{
	densePapers: 30, denseReviewers: 60,
	sparsePapers: 150, sparseReviewers: 300,
	topics: 10, candidateCap: 16,
	corpusScale: 0.15, trackEdits: 40, editTracks: 2,
	viewRate: 300, writeRate: 5,
	minUnits:    100,
	setupRounds: 2,
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func specNames(ms []specMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func TestBenchmarkJSONDeclaresTheSuite(t *testing.T) {
	s, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared, built []string
	for _, w := range s.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		built = append(built, w.name)
	}
	if !slices.Equal(declared, built) {
		t.Errorf("BENCHMARK.json workloads %v, suite runs %v", declared, built)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	comparable := func(in *inputs) inputs {
		c := *in
		c.tenants = nil
		for _, t := range in.tenants {
			u := *t
			u.base = nil // carries the scoring function, which DeepEqual cannot compare
			c.tenants = append(c.tenants, &u)
		}
		return c
	}
	for _, w := range workloads {
		a, err := w.build(3, time.Second, tinyScale)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := w.build(3, time.Second, tinyScale)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !reflect.DeepEqual(comparable(a), comparable(b)) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		for _, tn := range a.tenants {
			if tn.base.NumPapers() != len(tn.req.Instance.Papers) || tn.base.Workload == 0 {
				t.Errorf("%s: base instance does not match the upload", w.name)
			}
		}
		c, err := w.build(4, time.Second, tinyScale)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if reflect.DeepEqual(comparable(a), comparable(c)) {
			t.Errorf("%s: another seed gave the same inputs", w.name)
		}
	}
}

// TestViewHeavyWriterFillsWindow checks that the open loop's writer has an
// edit batch for every arrival of its window, however long the window.
func TestViewHeavyWriterFillsWindow(t *testing.T) {
	window := 8 * time.Second
	in, err := viewHeavyInputs(5, window, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	want := len(arrivals(rand.New(rand.NewSource(11)), tinyScale.writeRate, window))
	batches := 0
	for _, o := range in.writer {
		if o.kind == opEdit {
			if len(o.edits) == 0 {
				t.Error("empty edit batch")
			}
			batches++
		}
	}
	if batches != want || want < int(tinyScale.writeRate*window.Seconds())/2 {
		t.Errorf("writer sends %d batches for %d arrivals", batches, want)
	}
}

// TestWorkloadsSmoke runs every workload untraced and traced for about a
// second against a freshly built daemon and checks that each run is correct
// and reports exactly the metrics BENCHMARK.json declares for its mode.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	s, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer("..", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			cfg := config{
				serverBin: bin, work: t.TempDir(), spansDir: t.TempDir(),
				seed: 1, window: time.Second, sc: tinyScale, log: &log,
			}
			r, err := runWorkload(context.Background(), cfg, w, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			res := r.result()
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", w.name, traced, res.Attempted, res.Failed, r.t.errs)
			}
			declared := s.EndToEnd
			if traced {
				declared = s.PerLayer
			}
			want := specNames(declared)
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%v: metrics %v, want %v", w.name, traced, got, want)
			}
			for _, m := range declared {
				if v, ok := res.Metrics[m.Name]; ok && v.Unit != m.Unit {
					t.Errorf("%s: %s reported in %q, declared in %q", w.name, m.Name, v.Unit, m.Unit)
				}
			}
			var printed []string
			for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
				if strings.HasPrefix(line, "#") {
					continue
				}
				f := strings.Fields(line)
				if len(f) != 5 || f[0] != w.name || !nameRE.MatchString(f[1]) || !strings.HasPrefix(f[4], "n=") {
					t.Errorf("%s: malformed metric line %q", w.name, line)
					continue
				}
				printed = append(printed, f[1])
			}
			sort.Strings(printed)
			if !slices.Equal(printed, want) {
				t.Errorf("%s traced=%v: printed %v, want %v", w.name, traced, printed, want)
			}
		}
	}
}
