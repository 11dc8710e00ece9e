package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples a reported tail percentile must have
// beyond it; a tail estimated from fewer is noise.
const minTail = 10

// percentile returns the nearest-rank q-quantile of ascending samples: the
// smallest sample with at least q·n samples at or below it. Above the median
// it refuses (ok=false) a rank with fewer than minTail samples beyond it, so
// a "p90" of 12 samples is never emitted.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if q > 0.5 && n-rank < minTail {
		return 0, false
	}
	return sorted[rank-1], true
}

// durationsMS converts durations to ascending milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// median returns the median of unsorted values (the mean of the middle two
// for an even count), leaving the input untouched.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of the values by
// the "exclusive" method of Python's statistics.quantiles(values, n=4), so
// spreads computed here match those computed from the same numbers there.
// It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	q1, _, q3 := quartiles(values)
	med := median(values)
	if med == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(med)
}
