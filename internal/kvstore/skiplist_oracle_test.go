package kvstore

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/holmes-colocation/holmes/internal/rng"
)

// oracleSkiplist is the pointer skiplist the slab skiplist replaced,
// kept as a test oracle: one heap node and one link slice per entry.
type oracleSkiplist struct {
	head        *oracleSkipNode
	level       int
	length      int
	src         *rng.Source
	searchSteps int
}

type oracleSkipNode struct {
	key   string
	value []byte
	next  []*oracleSkipNode
}

func newOracleSkiplist(seed uint64) *oracleSkiplist {
	return &oracleSkiplist{
		head:  &oracleSkipNode{next: make([]*oracleSkipNode, skipMaxLevel)},
		level: 1,
		src:   rng.New(seed),
	}
}

func (s *oracleSkiplist) randomLevel() int {
	lvl := 1
	for lvl < skipMaxLevel && s.src.Float64() < 0.25 {
		lvl++
	}
	return lvl
}

func (s *oracleSkiplist) findPredecessors(key string, update *[skipMaxLevel]*oracleSkipNode) *oracleSkipNode {
	s.searchSteps = 0
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
			s.searchSteps++
		}
		update[i] = x
	}
	return x.next[0]
}

func (s *oracleSkiplist) Set(key string, value []byte) bool {
	var update [skipMaxLevel]*oracleSkipNode
	cand := s.findPredecessors(key, &update)
	if cand != nil && cand.key == key {
		cand.value = value
		return false
	}
	lvl := s.randomLevel()
	if lvl > s.level {
		for i := s.level; i < lvl; i++ {
			update[i] = s.head
		}
		s.level = lvl
	}
	node := &oracleSkipNode{key: key, value: value, next: make([]*oracleSkipNode, lvl)}
	for i := 0; i < lvl; i++ {
		node.next[i] = update[i].next[i]
		update[i].next[i] = node
	}
	s.length++
	return true
}

func (s *oracleSkiplist) Get(key string) ([]byte, bool) {
	var update [skipMaxLevel]*oracleSkipNode
	cand := s.findPredecessors(key, &update)
	if cand != nil && cand.key == key {
		return cand.value, true
	}
	return nil, false
}

func (s *oracleSkiplist) Delete(key string) bool {
	var update [skipMaxLevel]*oracleSkipNode
	cand := s.findPredecessors(key, &update)
	if cand == nil || cand.key != key {
		return false
	}
	for i := 0; i < s.level; i++ {
		if update[i].next[i] == cand {
			update[i].next[i] = cand.next[i]
		}
	}
	for s.level > 1 && s.head.next[s.level-1] == nil {
		s.level--
	}
	s.length--
	return true
}

func (s *oracleSkiplist) Seek(start string, count int, fn func(key string, value []byte) bool) int {
	var update [skipMaxLevel]*oracleSkipNode
	node := s.findPredecessors(start, &update)
	visited := 0
	for node != nil && visited < count {
		if !fn(node.key, node.value) {
			visited++
			break
		}
		visited++
		node = node.next[0]
		s.searchSteps++
	}
	return visited
}

func (s *oracleSkiplist) All(fn func(key string, value []byte)) {
	for n := s.head.next[0]; n != nil; n = n.next[0] {
		fn(n.key, n.value)
	}
}

// skipOp is one step of a random stream: Set, Delete, Get, Seek or Reset,
// each followed by All.
type skipOp struct {
	Kind  uint8
	Key   uint8
	Count uint8
	Stop  uint8 // Seek's callback stops after this many entries
}

// TestSkiplistMatchesOracle drives the slab skiplist and the pointer
// oracle, seeded alike, through random Set, Delete, Get, Seek, Reset and
// All streams over a small key space (so deletes hit and freed nodes are
// reused), requiring identical results, visit sequences, lengths and
// LastSearchSteps after every op. A Reset is matched by a fresh oracle.
func TestSkiplistMatchesOracle(t *testing.T) {
	check := func(seed uint64, ops []skipOp) bool {
		slab, oracle := NewSkiplist(seed), newOracleSkiplist(seed)
		for step, op := range ops {
			key := fmt.Sprintf("k%03d", op.Key%64)
			var got, want string
			switch op.Kind % 6 {
			case 0, 1:
				val := []byte{op.Count}
				got = fmt.Sprint(slab.Set(key, val))
				want = fmt.Sprint(oracle.Set(key, val))
			case 2:
				got, want = fmt.Sprint(slab.Delete(key)), fmt.Sprint(oracle.Delete(key))
			case 3:
				v, ok := slab.Get(key)
				got = fmt.Sprint(v, ok)
				v, ok = oracle.Get(key)
				want = fmt.Sprint(v, ok)
			case 4:
				seek := func(out *string) func(string, []byte) bool {
					seen := 0
					return func(k string, v []byte) bool {
						*out += fmt.Sprint(k, v, " ")
						seen++
						return seen <= int(op.Stop%8)
					}
				}
				n := slab.Seek(key, int(op.Count%16), seek(&got))
				got += fmt.Sprint(n)
				n = oracle.Seek(key, int(op.Count%16), seek(&want))
				want += fmt.Sprint(n)
			case 5:
				slab.Reset(seed + uint64(op.Count))
				oracle = newOracleSkiplist(seed + uint64(op.Count))
			}
			slab.All(func(k string, v []byte) { got += fmt.Sprint(" ", k, v) })
			oracle.All(func(k string, v []byte) { want += fmt.Sprint(" ", k, v) })
			if got != want || slab.Len() != oracle.length ||
				slab.LastSearchSteps() != oracle.searchSteps || slab.level != oracle.level {
				t.Logf("seed %d, step %d (%+v): %q vs %q, len %d/%d, steps %d/%d, level %d/%d",
					seed, step, op, got, want, slab.Len(), oracle.length,
					slab.LastSearchSteps(), oracle.searchSteps, slab.level, oracle.level)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
