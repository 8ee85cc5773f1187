package wiredtiger

import (
	"slices"
	"sort"
)

// node is a B+tree node. Inner nodes hold separator keys and children;
// leaf nodes hold the records and are linked for range scans. Keys in an
// inner node are the minimum keys of children[1:], so a lookup descends
// into children[i] where i is the number of separators <= key.
type node struct {
	leaf bool

	// Inner node state.
	seps     []string
	children []*node

	// Leaf node state.
	keys   []string
	values [][]byte
	next   *node

	id    int64
	name  string // a leaf's page key in the residency model
	bytes int64
}

// btree is the B+tree of one table: its root, shape and page ids.
type btree struct {
	root         *node
	height       int
	leafMaxBytes int64
	innerFanout  int
	nextPageID   int64
	leaves       int
}

func newBtree(leafMaxBytes int64, innerFanout int) *btree {
	t := &btree{leafMaxBytes: leafMaxBytes, innerFanout: innerFanout, height: 1}
	t.nextPageID++
	t.root = &node{leaf: true, id: t.nextPageID, name: pageKey(t.nextPageID)}
	t.leaves = 1
	return t
}

// clone returns an independent copy of the tree. Keys and values are
// shared; every node and its slices are copied, and the copied leaves are
// linked left to right as the originals are.
func (t *btree) clone() *btree {
	c := *t
	var last *node
	c.root = t.root.clone(&last)
	return &c
}

// clone copies the subtree under n. Leaves are reached in key order, so
// each copied leaf becomes the next of *last, the copy made before it.
func (n *node) clone(last **node) *node {
	c := *n
	if n.leaf {
		c.keys = slices.Clone(n.keys)
		c.values = slices.Clone(n.values)
		c.next = nil
		if *last != nil {
			(*last).next = &c
		}
		*last = &c
		return &c
	}
	c.seps = slices.Clone(n.seps)
	c.children = make([]*node, len(n.children))
	for i, child := range n.children {
		c.children[i] = child.clone(last)
	}
	return &c
}

// descend returns the leaf for key and the path of inner nodes visited.
func (t *btree) descend(key string) (*node, int) {
	n := t.root
	steps := 0
	for !n.leaf {
		i := sort.SearchStrings(n.seps, key)
		// seps[i-1] <= key < seps[i] -> child i... SearchStrings returns
		// the first separator >= key; keys equal to a separator belong to
		// the right child.
		j := i
		if i < len(n.seps) && n.seps[i] == key {
			j = i + 1
		}
		n = n.children[j]
		steps++
	}
	return n, steps
}

func recordBytes(key string, value []byte) int64 {
	return int64(len(key) + len(value) + 24)
}

// search returns the index of the first key >= key in leaf n and
// whether it is key itself.
func (n *node) search(key string) (int, bool) {
	i := sort.SearchStrings(n.keys, key)
	return i, i < len(n.keys) && n.keys[i] == key
}

// get returns key's value in leaf n.
func (n *node) get(key string) ([]byte, bool) {
	if i, ok := n.search(key); ok {
		return n.values[i], true
	}
	return nil, false
}

// set inserts or overwrites key in leaf, the leaf descend(key) returned,
// so the write walks the tree once. It reports whether the key was new
// and whether the leaf split (its new right half is then leaf.next).
func (t *btree) set(leaf *node, key string, value []byte) (isNew, split bool) {
	i, ok := leaf.search(key)
	if ok {
		leaf.bytes += int64(len(value) - len(leaf.values[i]))
		leaf.values[i] = value
		return false, false
	}
	leaf.keys = slices.Insert(leaf.keys, i, key)
	leaf.values = slices.Insert(leaf.values, i, value)
	leaf.bytes += recordBytes(key, value)
	if leaf.bytes > t.leafMaxBytes && len(leaf.keys) > 1 {
		t.splitLeaf(leaf)
		return true, true
	}
	return true, false
}

// delete removes key from leaf, the leaf descend(key) returned,
// reporting whether it existed. Leaf merging is not implemented
// (WiredTiger reconciles lazily; YCSB never deletes), so pages may
// become sparse but never invalid.
func (t *btree) delete(leaf *node, key string) bool {
	i, ok := leaf.search(key)
	if !ok {
		return false
	}
	leaf.bytes -= recordBytes(key, leaf.values[i])
	leaf.keys = slices.Delete(leaf.keys, i, i+1)
	leaf.values = slices.Delete(leaf.values, i, i+1)
	return true
}

// splitLeaf splits a full leaf in half and inserts the new separator into
// the parent, splitting inner nodes upward as needed.
func (t *btree) splitLeaf(leaf *node) {
	mid := len(leaf.keys) / 2
	t.nextPageID++
	right := &node{
		leaf:   true,
		id:     t.nextPageID,
		name:   pageKey(t.nextPageID),
		keys:   append([]string(nil), leaf.keys[mid:]...),
		values: append([][]byte(nil), leaf.values[mid:]...),
		next:   leaf.next,
	}
	for i := range right.keys {
		right.bytes += recordBytes(right.keys[i], right.values[i])
	}
	leaf.keys = leaf.keys[:mid]
	leaf.values = leaf.values[:mid]
	leaf.bytes -= right.bytes
	leaf.next = right
	t.leaves++
	t.insertIntoParent(leaf, right.keys[0], right)
}

// insertIntoParent links newChild (with separator sep) to the right of
// child, growing the tree if child was the root.
func (t *btree) insertIntoParent(child *node, sep string, newChild *node) {
	parent := t.findParent(t.root, child)
	if parent == nil {
		// child was the root.
		t.nextPageID++
		t.root = &node{
			id:       t.nextPageID,
			seps:     []string{sep},
			children: []*node{child, newChild},
		}
		t.height++
		return
	}
	// Insert sep/newChild right after child's position.
	pos := 0
	for pos < len(parent.children) && parent.children[pos] != child {
		pos++
	}
	parent.seps = append(parent.seps, "")
	copy(parent.seps[pos+1:], parent.seps[pos:])
	parent.seps[pos] = sep
	parent.children = append(parent.children, nil)
	copy(parent.children[pos+2:], parent.children[pos+1:])
	parent.children[pos+1] = newChild
	if len(parent.children) > t.innerFanout {
		t.splitInner(parent)
	}
}

// splitInner splits an over-full inner node.
func (t *btree) splitInner(n *node) {
	mid := len(n.seps) / 2
	promote := n.seps[mid]
	t.nextPageID++
	right := &node{
		id:       t.nextPageID,
		seps:     append([]string(nil), n.seps[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	n.seps = n.seps[:mid]
	n.children = n.children[:mid+1]
	t.insertIntoParent(n, promote, right)
}

// findParent locates the parent of target below cur (nil for the root).
// The tree is shallow (fanout >= 16), so the walk is cheap.
func (t *btree) findParent(cur, target *node) *node {
	if cur.leaf {
		return nil
	}
	for _, c := range cur.children {
		if c == target {
			return cur
		}
	}
	// Narrow to the child whose range could contain target's first key.
	key := targetMinKey(target)
	i := sort.SearchStrings(cur.seps, key)
	j := i
	if i < len(cur.seps) && cur.seps[i] == key {
		j = i + 1
	}
	if j >= len(cur.children) {
		j = len(cur.children) - 1
	}
	if cur.children[j].leaf {
		return nil
	}
	return t.findParent(cur.children[j], target)
}

func targetMinKey(n *node) string {
	for !n.leaf {
		n = n.children[0]
	}
	if len(n.keys) > 0 {
		return n.keys[0]
	}
	return ""
}

// seek returns the leaf holding the first key >= start, starting from
// leaf n, the leaf descend(start) returned, and that key's index within
// it; the leaf is nil when no key is >= start.
func (n *node) seek(start string) (*node, int) {
	i, _ := n.search(start)
	for n != nil && i >= len(n.keys) {
		n = n.next
		i = 0
	}
	return n, i
}

// walkLeaves calls fn for every leaf, left to right.
func (t *btree) walkLeaves(fn func(*node)) {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	for ; n != nil; n = n.next {
		fn(n)
	}
}
