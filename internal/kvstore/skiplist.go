package kvstore

import (
	"slices"

	"github.com/holmes-colocation/holmes/internal/rng"
)

// Skiplist is a deterministic ordered map used as the RocksDB memtable and
// as the sorted index Redis keeps for range scans (the YCSB Redis binding
// maintains a ZSET index for exactly this reason). Tower heights come from
// a seeded generator so simulations replay identically.
//
// Nodes live in one slab with the head at index 0; each node's forward
// links are a window of one shared tower slice, and link 0 means "none"
// (no link ever points back at the head). Deleted nodes go on a free
// list per height, so a node allocates only when the slab adds a chunk
// or the tower slice grows.
//
// A fresh or reset skiplist keeps an append finger: the last node at
// each level and the hops a search for a key past the maximum makes at
// each level. While keys arrive in ascending order (a YCSB load phase,
// a memtable filled by one), Set links each new key through the finger
// with one compare and reports the node visits the full search would
// have made. A mid-list insert or a delete disarms the finger until the
// next Reset.
type Skiplist struct {
	nodes  Slab[skipNode]
	tower  []int32 // forward links: node n's level i is tower[n.tower+i]
	free   [skipMaxLevel]int32
	level  int
	length int
	src    *rng.Source
	// searchSteps counts node visits of the last operation, feeding the
	// operation's memory-access cost.
	searchSteps int
	// The append finger, valid while armed: last[i] is the last node at
	// level i (0 = the head), and hops[i] counts the level-i nodes after
	// last[i+1], the hops a search past the maximum makes at level i.
	armed bool
	last  [skipMaxLevel]int32
	hops  [skipMaxLevel]int
}

const skipMaxLevel = 16

type skipNode struct {
	key   string
	value []byte
	tower int32 // offset of the node's links in Skiplist.tower
}

// NewSkiplist creates an empty skiplist seeded deterministically.
func NewSkiplist(seed uint64) *Skiplist {
	s := &Skiplist{}
	s.Reset(seed)
	return s
}

// Reset empties the skiplist and reseeds it as NewSkiplist(seed) would,
// keeping its memory for the next fill (a flushed memtable's successor).
func (s *Skiplist) Reset(seed uint64) {
	s.nodes.Reset()
	s.nodes.Add() // the head, with the first skipMaxLevel links
	s.tower = append(s.tower[:0], make([]int32, skipMaxLevel)...)
	*s = Skiplist{nodes: s.nodes, tower: s.tower, level: 1, src: rng.New(seed), armed: true}
}

// Clone returns an independent copy of the skiplist: its nodes, links,
// free lists and the state of its tower-height generator, so the clone
// grows exactly as the original would. Keys and values are shared.
func (s *Skiplist) Clone() *Skiplist {
	c := *s
	c.nodes = s.nodes.Clone()
	c.tower = slices.Clone(s.tower)
	src := *s.src
	c.src = &src
	return &c
}

// Len returns the number of entries.
func (s *Skiplist) Len() int { return s.length }

// LastSearchSteps returns the node visits of the most recent operation.
func (s *Skiplist) LastSearchSteps() int { return s.searchSteps }

func (s *Skiplist) randomLevel() int {
	lvl := 1
	for lvl < skipMaxLevel && s.src.Float64() < 0.25 {
		lvl++
	}
	return lvl
}

// next returns node n's successor at level i (0 = none).
func (s *Skiplist) next(n int32, i int) int32 { return s.tower[s.nodes.At(n).tower+int32(i)] }

// findPredecessors fills update with the rightmost node before key at each
// level and returns the candidate node (which may equal key), 0 if none.
func (s *Skiplist) findPredecessors(key string, update *[skipMaxLevel]int32) int32 {
	s.searchSteps = 0
	x := int32(0)
	for i := s.level - 1; i >= 0; i-- {
		for nx := s.next(x, i); nx != 0 && s.nodes.At(nx).key < key; nx = s.next(x, i) {
			x = nx
			s.searchSteps++
		}
		update[i] = x
	}
	return s.next(x, 0)
}

// Set inserts or overwrites key. It returns true if the key was new.
func (s *Skiplist) Set(key string, value []byte) bool {
	if s.armed && key > s.nodes.At(s.last[0]).key { // the head's key is ""
		s.searchSteps = 0
		for _, h := range s.hops[:s.level] {
			s.searchSteps += h
		}
		n, lvl := s.link(key, value, &s.last)
		// n is now last on each of its levels: a search past it makes
		// one more hop at n's top level and none below it.
		for i := 0; i < lvl-1; i++ {
			s.last[i], s.hops[i] = n, 0
		}
		s.last[lvl-1] = n
		s.hops[lvl-1]++
		return true
	}
	var update [skipMaxLevel]int32
	cand := s.findPredecessors(key, &update)
	if c := s.nodes.At(cand); cand != 0 && c.key == key {
		c.value = value
		return false
	}
	s.link(key, value, &update)
	s.armed = false // the finger's hop counts no longer hold
	return true
}

// link inserts a new node for key after update[i] at each level of a
// freshly drawn height, returning the node and its height.
func (s *Skiplist) link(key string, value []byte, update *[skipMaxLevel]int32) (int32, int) {
	lvl := s.randomLevel()
	if lvl > s.level {
		for i := s.level; i < lvl; i++ {
			update[i] = 0
		}
		s.level = lvl
	}
	n := s.alloc(lvl)
	node := s.nodes.At(n)
	node.key, node.value = key, value
	for i := 0; i < lvl; i++ {
		p := s.nodes.At(update[i]).tower + int32(i)
		s.tower[node.tower+int32(i)] = s.tower[p]
		s.tower[p] = n
	}
	s.length++
	return n, lvl
}

// alloc returns a node with lvl links, reusing a deleted one of the same
// height when there is one. Its links are not cleared: Set overwrites
// all of them.
func (s *Skiplist) alloc(lvl int) int32 {
	if n := s.free[lvl-1]; n != 0 {
		s.free[lvl-1] = s.tower[s.nodes.At(n).tower]
		return n
	}
	n := s.nodes.Add()
	s.nodes.At(n).tower = int32(len(s.tower))
	s.tower = append(s.tower, make([]int32, lvl)...)
	return n
}

// Get returns the value for key.
func (s *Skiplist) Get(key string) ([]byte, bool) {
	var update [skipMaxLevel]int32
	cand := s.findPredecessors(key, &update)
	if c := s.nodes.At(cand); cand != 0 && c.key == key {
		return c.value, true
	}
	return nil, false
}

// Delete removes key, reporting whether it existed.
func (s *Skiplist) Delete(key string) bool {
	var update [skipMaxLevel]int32
	cand := s.findPredecessors(key, &update)
	c := s.nodes.At(cand)
	if cand == 0 || c.key != key {
		return false
	}
	lvl := 0
	for i := 0; i < s.level; i++ {
		if p := s.nodes.At(update[i]).tower + int32(i); s.tower[p] == cand {
			s.tower[p] = s.next(cand, i)
			lvl = i + 1
		}
	}
	for s.level > 1 && s.next(0, s.level-1) == 0 {
		s.level--
	}
	// Every level of the node's tower was linked, so lvl is its height.
	*c = skipNode{tower: c.tower}
	s.tower[c.tower] = s.free[lvl-1]
	s.free[lvl-1] = cand
	s.length--
	s.armed = false
	return true
}

// Seek positions at the first key >= start and calls fn for up to count
// entries in order; fn returning false stops early. It returns the number
// of visited entries.
func (s *Skiplist) Seek(start string, count int, fn func(key string, value []byte) bool) int {
	var update [skipMaxLevel]int32
	n := s.findPredecessors(start, &update)
	visited := 0
	for n != 0 && visited < count {
		if node := s.nodes.At(n); !fn(node.key, node.value) {
			visited++
			break
		}
		visited++
		n = s.next(n, 0)
		s.searchSteps++
	}
	return visited
}

// All calls fn for every entry in key order (used by memtable flush).
func (s *Skiplist) All(fn func(key string, value []byte)) {
	for n := s.next(0, 0); n != 0; n = s.next(n, 0) {
		node := s.nodes.At(n)
		fn(node.key, node.value)
	}
}

// Min returns the smallest key, or "" when empty.
func (s *Skiplist) Min() string {
	return s.nodes.At(s.next(0, 0)).key // the head's key is ""
}
