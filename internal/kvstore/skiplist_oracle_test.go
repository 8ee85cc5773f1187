package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// skipOp is one step of a random stream: Set, Delete, Get, Seek or
// Reset of a key near the largest one set since the last reset, or an
// append of Count%16+1 keys past it; each followed by All.
type skipOp struct {
	Kind  uint8
	Key   uint8
	Count uint8
	Stop  uint8 // Seek's callback stops after this many entries
}

// visits lists the entries all visits, in order.
func visits(all func(func(string, []byte))) []string {
	var out []string
	all(func(k string, v []byte) { out = append(out, k+string(v)) })
	return out
}

// skipOracleMismatch drives the slab skiplist and the pointer oracle,
// seeded alike, through ops and describes the first step after which
// their results, visit sequences (All), lengths, levels or
// LastSearchSteps differ, or returns "". Keys are numbered; hi is the
// largest number set since the last reset. Set, Delete, Get and Seek
// take a key within 64 of hi, so they overwrite, insert mid-list,
// delete, and (Key%64 == 0) go just past the maximum; an append sets
// hi+1, hi+2, ... and compares after each key. A Reset is matched by a
// fresh oracle.
func skipOracleMismatch(seed uint64, ops []skipOp) string {
	slab, oracle := NewSkiplist(seed), newOracleSkiplist(seed)
	hi := 0
	name := func(n int) string { return fmt.Sprintf("k%06d", n) }
	for step, op := range ops {
		n := hi + 1 - int(op.Key%64)
		if n < 0 {
			n = -n
		}
		key := name(n)
		var got, want string
		agree := func() string {
			if got != want || slab.Len() != oracle.length ||
				slab.LastSearchSteps() != oracle.searchSteps || slab.level != oracle.level {
				return fmt.Sprintf("seed %d, step %d (%+v): %q vs %q, len %d/%d, steps %d/%d, level %d/%d",
					seed, step, op, got, want, slab.Len(), oracle.length,
					slab.LastSearchSteps(), oracle.searchSteps, slab.level, oracle.level)
			}
			return ""
		}
		switch op.Kind % 8 {
		case 0:
			val := []byte{op.Count}
			got = fmt.Sprint(slab.Set(key, val))
			want = fmt.Sprint(oracle.Set(key, val))
			hi = max(hi, n)
		case 1:
			got, want = fmt.Sprint(slab.Delete(key)), fmt.Sprint(oracle.Delete(key))
		case 2:
			v, ok := slab.Get(key)
			got = fmt.Sprint(v, ok)
			v, ok = oracle.Get(key)
			want = fmt.Sprint(v, ok)
		case 3:
			seek := func(out *string) func(string, []byte) bool {
				seen := 0
				return func(k string, v []byte) bool {
					*out += fmt.Sprint(k, v, " ")
					seen++
					return seen <= int(op.Stop%8)
				}
			}
			visited := slab.Seek(key, int(op.Count%16), seek(&got))
			got += fmt.Sprint(visited)
			visited = oracle.Seek(key, int(op.Count%16), seek(&want))
			want += fmt.Sprint(visited)
		case 4:
			slab.Reset(seed + uint64(op.Count))
			oracle = newOracleSkiplist(seed + uint64(op.Count))
			hi = 0
		default:
			for range int(op.Count%16) + 1 {
				hi++
				val := []byte{op.Stop}
				got = fmt.Sprint(slab.Set(name(hi), val))
				want = fmt.Sprint(oracle.Set(name(hi), val))
				if msg := agree(); msg != "" {
					return "append: " + msg
				}
			}
		}
		if msg := agree(); msg != "" {
			return msg
		}
		if g, w := visits(slab.All), visits(oracle.All); !slices.Equal(g, w) {
			return fmt.Sprintf("seed %d, step %d (%+v): All visits %q, oracle %q", seed, step, op, g, w)
		}
	}
	return ""
}

// TestSkiplistMatchesOracle drives the slab skiplist and the pointer
// oracle through random streams of appends (ascending keys past the
// maximum, the skiplist's append finger) mixed with Set, Delete, Get,
// Seek and Reset near the maximum: overwrites, mid-list inserts that
// disarm the finger, deletes that free nodes for reuse, and resets that
// re-arm it. It requires identical results, visit sequences, lengths,
// levels and LastSearchSteps after every op and every appended key. A
// second set of long append-heavy streams grows towers several levels
// high before the first mid-list insert.
func TestSkiplistMatchesOracle(t *testing.T) {
	check := func(seed uint64, ops []skipOp) bool {
		if msg := skipOracleMismatch(seed, ops); msg != "" {
			t.Log(msg)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	long := func(args []reflect.Value, r *rand.Rand) {
		args[0] = reflect.ValueOf(r.Uint64())
		ops := make([]skipOp, 400)
		for i := range ops {
			ops[i] = skipOp{Kind: 5, Count: 15, Stop: uint8(i)}
			if i >= 200 && r.Intn(4) == 0 { // mixed ops after 3,200 appended keys
				ops[i] = skipOp{Kind: uint8(r.Intn(4)), Key: uint8(r.Uint32()), Count: uint8(r.Uint32()), Stop: uint8(r.Uint32())}
			}
		}
		args[1] = reflect.ValueOf(ops)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 4, Values: long}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSkiplistOracle runs the oracle comparison over fuzzed op streams,
// four bytes per op (kind, key, count, stop), as skipOp encodes them. A
// stream stops at 256 ops: every op compares whole visit sequences.
func FuzzSkiplistOracle(f *testing.F) {
	f.Add(uint64(1), []byte("\x05\x00\x0f\x01\x00\x03\x01\x02\x05\x00\x07\x03\x01\x00\x00\x00\x03\x10\x08\x02\x04\x00\x02\x00\x05\x00\x0f\x04"))
	f.Add(uint64(7), bytes.Repeat([]byte{0x05, 0x00, 0x0f, 0x09, 0x00, 0x05, 0x01, 0x00, 0x02, 0x21, 0x00, 0x00}, 40))
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		ops := make([]skipOp, min(len(data)/4, 256))
		for i := range ops {
			b := data[4*i:]
			ops[i] = skipOp{Kind: b[0], Key: b[1], Count: b[2], Stop: b[3]}
		}
		if msg := skipOracleMismatch(seed, ops); msg != "" {
			t.Fatal(msg)
		}
	})
}
