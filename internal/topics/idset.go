package topics

import "math/bits"

// IDSet is a set of ids in [0, n) that lists its members in ascending order
// without sorting: a two-level bitmap with one bit per id and one summary bit
// per 64-id leaf word, so one summary word covers 4,096 ids. Add and Has are
// O(1); Drain reads every summary word but only the leaf words that hold
// members, and clears each as it goes, so a set that is filled and drained
// per query costs its members plus n/4096 words, never a pass over n/64.
type IDSet struct {
	leaf []uint64
	sum  []uint64
}

// NewIDSet returns an empty set for ids in [0, n).
func NewIDSet(n int) *IDSet {
	words := (n + 63) / 64
	return &IDSet{
		leaf: make([]uint64, words),
		sum:  make([]uint64, (words+63)/64),
	}
}

// Add inserts id; adding a member again is a no-op.
func (s *IDSet) Add(id int32) {
	w := uint(id) / 64
	s.leaf[w] |= 1 << (uint(id) % 64)
	s.sum[w/64] |= 1 << (w % 64)
}

// Has reports whether id is a member.
func (s *IDSet) Has(id int32) bool {
	return s.leaf[uint(id)/64]&(1<<(uint(id)%64)) != 0
}

// Drain appends the members to out in ascending order, empties the set and
// returns the extended slice.
func (s *IDSet) Drain(out []int32) []int32 {
	for si, sw := range s.sum {
		if sw == 0 {
			continue
		}
		s.sum[si] = 0
		for ; sw != 0; sw &= sw - 1 {
			w := si*64 + bits.TrailingZeros64(sw)
			lw := s.leaf[w]
			s.leaf[w] = 0
			for ; lw != 0; lw &= lw - 1 {
				out = append(out, int32(w*64+bits.TrailingZeros64(lw)))
			}
		}
	}
	return out
}
