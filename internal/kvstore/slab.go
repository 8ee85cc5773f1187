package kvstore

// Slab is a growable array that never moves its elements: it grows one
// fixed-size chunk at a time, so filling it to n elements allocates
// about n elements once and copies nothing. A slice filled by append
// instead allocates and copies its large backing array several times
// over, and keeps up to twice the memory it needs. The zero value is an
// empty slab.
type Slab[E any] struct {
	chunks [][]E
	n      int32
}

const (
	slabShift = 10
	slabChunk = 1 << slabShift
)

// At returns element i, which must have been added since the last reset.
func (s *Slab[E]) At(i int32) *E { return &s.chunks[i>>slabShift][i&(slabChunk-1)] }

// Add appends a zero element and returns its index.
func (s *Slab[E]) Add() int32 {
	if int(s.n>>slabShift) == len(s.chunks) {
		s.chunks = append(s.chunks, make([]E, slabChunk))
	}
	s.n++
	return s.n - 1
}

// Reset empties the slab, keeping its chunks for reuse. Elements added
// after a reset start zeroed.
func (s *Slab[E]) Reset() {
	for _, c := range s.chunks {
		clear(c)
	}
	s.n = 0
}

// Clone returns a copy of the slab that shares no chunk with it. The
// elements are copied by value, so whatever they point to is shared.
// Chunks past the last element are zero and are not copied.
func (s *Slab[E]) Clone() Slab[E] {
	c := Slab[E]{chunks: make([][]E, (s.n+slabChunk-1)>>slabShift), n: s.n}
	for i := range c.chunks {
		c.chunks[i] = append(make([]E, 0, slabChunk), s.chunks[i]...)
	}
	return c
}
