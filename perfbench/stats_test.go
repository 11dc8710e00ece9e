package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []float64
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	for _, c := range []struct {
		q    float64
		want float64
		ok   bool
	}{
		{0.50, 50, true},
		{0.90, 90, true},  // 10 samples beyond it
		{0.91, 0, false},  // 9 beyond: refused
		{0.99, 0, false},  // 1 beyond: refused
		{0.25, 25, true},  // below the median no tail rule applies
		{0.505, 51, true}, // ranks round up
	} {
		got, ok := percentile(s, c.q)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("percentile(1..100, %v) = %v, %v; want %v, %v", c.q, got, ok, c.want, c.ok)
		}
	}
	// Twelve samples have a median but no p90 or p99.
	if v, ok := percentile(s[:12], 0.5); !ok || v != 6 {
		t.Errorf("median of 1..12 = %v, %v; want 6", v, ok)
	}
	if _, ok := percentile(s[:12], 0.99); ok {
		t.Error("p99 of 12 samples was emitted")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples was emitted")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(data, n=4) for each data set.
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{4, 2}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(c.data)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestScaledMS(t *testing.T) {
	ms := time.Millisecond
	// Unit 0 ran between probes at twice the reference time, so it takes
	// half as long at the reference speed; unit 1 between probes averaging
	// 1.5 times it.
	s := samples{
		units:  []time.Duration{10 * ms, 7 * ms},
		probes: []time.Duration{4 * ms, 4 * ms, 2 * ms},
		ref:    2 * ms, bracketed: true,
	}
	want := []float64{7 / 1.5, 5} // ascending
	got := s.scaledMS()
	if len(got) != 2 || math.Abs(got[0]-want[0]) > 1e-6 || math.Abs(got[1]-want[1]) > 1e-6 {
		t.Errorf("bracketed scaledMS = %v, want %v", got, want)
	}
	// Unbracketed units are all scaled by the median probe, here twice the
	// reference time.
	open := samples{
		units:  []time.Duration{3 * ms, ms},
		probes: []time.Duration{ms, 4 * ms, 4 * ms},
		ref:    2 * ms,
	}
	if got := open.scaledMS(); len(got) != 2 || got[0] != 0.5 || got[1] != 1.5 {
		t.Errorf("unbracketed scaledMS = %v, want [0.5 1.5]", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "latency_ms_p50", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "avg_coverage", Better: "higher", Bound: 0.03}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name           string
		parent, change []float64
		m              specMetric
		want           string
	}{
		{"same runs", steady, steady, lower, unchanged},
		{"5% slower, within the bound", steady, scale(steady, 1.05), lower, unchanged},
		{"20% slower", steady, scale(steady, 1.2), lower, regressed},
		{"20% faster", steady, scale(steady, 0.8), lower, improved},
		{"higher is better", steady, scale(steady, 0.95), higher, regressed},
		{"noisy parent", []float64{50, 150, 80, 120, 100}, scale(steady, 1.01), lower, unresolved},
		{"noisy but every run better", []float64{150, 250, 180, 220, 200}, steady, lower, improved},
	} {
		if got := verdict(c.parent, c.change, c.m); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
