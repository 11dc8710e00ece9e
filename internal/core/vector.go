// Package core defines the data model of the Weighted-coverage Group-based
// Reviewer Assignment Problem (WGRAP): topic vectors, reviewers, papers,
// reviewer groups, assignments, workload constraints, conflicts of interest
// and the family of coverage scoring functions studied in the paper
// (weighted coverage, reviewer coverage, paper coverage and dot-product).
//
// All algorithm packages (internal/jra, internal/cra, ...) operate on the
// types defined here and address reviewers and papers by their index in an
// Instance, which keeps the hot paths allocation free.
package core

import (
	"fmt"
	"math"
	"strings"
)

// Vector is a T-dimensional topic vector. Entry t holds the relevance of a
// reviewer's expertise or a paper's content to topic t. Vectors are usually
// normalised so that their entries sum to one, but none of the scoring
// functions require it (Definition 1 keeps the normalising denominator).
type Vector []float64

// Dim returns the number of topics T.
func (v Vector) Dim() int { return len(v) }

// Sum returns the sum of all entries.
func (v Vector) Sum() float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// Clone returns a deep copy of the vector.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// NonFinite returns the index of v's first NaN or ±Inf weight, or -1 when
// every weight is finite.
func (v Vector) NonFinite() int {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return i
		}
	}
	return -1
}

// Normalized returns a copy of v scaled so its entries sum to one. A zero
// vector is returned unchanged.
func (v Vector) Normalized() Vector {
	s := v.Sum()
	c := v.Clone()
	if s <= 0 {
		return c
	}
	for i := range c {
		c[i] /= s
	}
	return c
}

// Scale returns a copy of v with every entry multiplied by f.
func (v Vector) Scale(f float64) Vector {
	c := make(Vector, len(v))
	for i, x := range v {
		c[i] = x * f
	}
	return c
}

// MaxInPlace raises every entry of v to at least the corresponding entry of
// o. It implements the group-expertise aggregation of Definition 2
// incrementally. The two vectors must have the same dimension.
func (v Vector) MaxInPlace(o Vector) {
	for i, x := range o {
		if x > v[i] {
			v[i] = x
		}
	}
}

// Max returns the entry-wise maximum of a and b as a new vector.
func Max(a, b Vector) Vector {
	c := a.Clone()
	c.MaxInPlace(b)
	return c
}

// Dot returns the inner product of a and b.
func Dot(a, b Vector) float64 {
	s := 0.0
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// MinSum returns sum_t min(a[t], b[t]), the numerator of the weighted
// coverage score (Definition 1).
func MinSum(a, b Vector) float64 {
	s := 0.0
	for i, x := range a {
		if y := b[i]; y < x {
			s += y
		} else {
			s += x
		}
	}
	return s
}

// TopTopics returns the indices of the k largest entries of v in descending
// order of weight. Ties are broken by topic index.
func (v Vector) TopTopics(k int) []int {
	if k > len(v) {
		k = len(v)
	}
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	// Selection of the k largest; T is small (tens) so O(kT) is fine.
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if v[idx[j]] > v[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}

// Equal reports whether a and b have the same dimension and their entries
// differ by at most eps.
func Equal(a, b Vector, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > eps {
			return false
		}
	}
	return true
}

// String renders the vector with three decimals, e.g. "[0.350 0.450 0.200]".
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3f", x)
	}
	b.WriteByte(']')
	return b.String()
}
