package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords loads an -out file as workload → metric → values in run
// order.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// Verdicts of a comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict judges the change's runs against the parent's for one metric. A
// spread wider than the bound leaves the metric unresolved unless every
// change run beats every parent run; a median worse by more than the bound
// is a regression; a gain needs the change to win nine tenths of the run
// pairs and the medians to differ by more than the parent's quartile
// distance.
func verdict(parent, change []float64, m specMetric) string {
	better := func(x, y float64) bool {
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	if max(spread(parent), spread(change)) > m.Bound && !allBetter {
		return unresolved
	}
	medP, medC := median(parent), median(change)
	worse := (medC - medP) / math.Abs(medP)
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return regressed
	}
	wins, pairs := 0, min(len(parent), len(change))
	for i := range pairs {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	q1, _, q3 := quartiles(parent)
	if pairs > 0 && 10*wins >= 9*pairs && math.Abs(medC-medP) > q3-q1 {
		return improved
	}
	return unchanged
}

// compareFiles prints, per workload and metric, both sides' medians and
// quartiles and, for the end-to-end metrics, the verdict. It reports false
// when any end-to-end metric regressed or is unresolved.
func compareFiles(w io.Writer, specPath, parentPath, changePath string) (bool, error) {
	s, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return false, err
	}
	ok := true
	for _, wl := range s.Workloads {
		pm, cm := parent[wl.Name], change[wl.Name]
		if pm == nil || cm == nil {
			continue
		}
		for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
			p, c := pm[m.Name], cm[m.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := "-"
			if m.Bound > 0 {
				v = verdict(p, c, m)
				ok = ok && v != regressed && v != unresolved
			}
			p1, p2, p3 := quartiles(p)
			c1, c2, c3 := quartiles(c)
			fmt.Fprintf(w, "%-12s %-28s %12.6g [%.6g, %.6g] n=%d  %12.6g [%.6g, %.6g] n=%d  %+7.2f%%  %s\n",
				wl.Name, m.Name, p2, p1, p3, len(p), c2, c1, c3, len(c), 100*(c2-p2)/math.Abs(p2), v)
		}
	}
	return ok, nil
}
