package kvstore

// slab is a growable array that never moves its elements: it grows one
// fixed-size chunk at a time, so filling it to n elements allocates
// about n elements once and copies nothing. A slice filled by append
// instead allocates and copies its large backing array several times
// over, and keeps up to twice the memory it needs.
type slab[E any] struct {
	chunks [][]E
	n      int32
}

const (
	slabShift = 10
	slabChunk = 1 << slabShift
)

// at returns element i, which must have been added since the last reset.
func (s *slab[E]) at(i int32) *E { return &s.chunks[i>>slabShift][i&(slabChunk-1)] }

// add appends a zero element and returns its index.
func (s *slab[E]) add() int32 {
	if int(s.n>>slabShift) == len(s.chunks) {
		s.chunks = append(s.chunks, make([]E, slabChunk))
	}
	s.n++
	return s.n - 1
}

// reset empties the slab, keeping its chunks for reuse. Elements added
// after a reset start zeroed.
func (s *slab[E]) reset() {
	for _, c := range s.chunks {
		clear(c)
	}
	s.n = 0
}
