package rocksdb

import (
	"sort"
	"strconv"

	"github.com/holmes-colocation/holmes/internal/kvstore"
)

// entry is one key-value pair; a nil value is a tombstone.
type entry struct {
	key   string
	value []byte
	del   bool
}

// entryMetaBytes is the per-entry metadata beyond the record encoding
// itself: sequence number (8) plus type/restart bookkeeping.
const entryMetaBytes = 13

func entryBytes(e entry) int64 {
	vlen := len(e.value)
	if e.del {
		vlen = -1
	}
	return kvstore.EncodedRecordSize(len(e.key), vlen) + entryMetaBytes
}

// sstable is an immutable sorted string table: sorted entries carved into
// fixed-size data blocks, with a block index and a bloom filter. The
// "file" lives in simulated SSD space; reading a block that is not in the
// block cache costs a device read.
type sstable struct {
	id      int64
	level   int
	entries []entry
	size    int64
	filter  *bloom
	// blockOf[i] is the data block holding entry i.
	blockOf   []int32
	numBlocks int
	// blockNames[b] ("<table id>/<b>") is block b's key in the CPU-cache
	// residency model, formatted once here rather than on every block hit.
	blockNames []string
	minKey     string
	maxKey     string
}

// buildSSTable constructs a table from sorted, de-duplicated entries.
func buildSSTable(id int64, level int, entries []entry, blockBytes int64, bitsPerKey int) *sstable {
	t := &sstable{id: id, level: level, entries: entries, filter: newBloom(len(entries), bitsPerKey)}
	t.blockOf = make([]int32, len(entries))
	var inBlock int64
	block := int32(0)
	for i, e := range entries {
		t.filter.add(e.key)
		sz := entryBytes(e)
		if inBlock > 0 && inBlock+sz > blockBytes {
			block++
			inBlock = 0
		}
		t.blockOf[i] = block
		inBlock += sz
		t.size += sz
	}
	t.numBlocks = int(block) + 1
	t.blockNames = make([]string, t.numBlocks)
	prefix := strconv.FormatInt(id, 10) + "/"
	for b := range t.blockNames {
		t.blockNames[b] = prefix + strconv.Itoa(b)
	}
	if len(entries) > 0 {
		t.minKey = entries[0].key
		t.maxKey = entries[len(entries)-1].key
	}
	return t
}

// mayContain consults the bloom filter.
func (t *sstable) mayContain(key string) bool {
	if key < t.minKey || key > t.maxKey {
		return false
	}
	return t.filter.mayContain(key)
}

// get performs the index lookup. It returns the entry, the data block it
// lives in (for block-cache accounting), and whether the key exists in
// this table (including as a tombstone).
func (t *sstable) get(key string) (e entry, block int32, ok bool) {
	i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].key >= key })
	if i < len(t.entries) && t.entries[i].key == key {
		return t.entries[i], t.blockOf[i], true
	}
	if i < len(t.entries) {
		return entry{}, t.blockOf[i], false
	}
	return entry{}, -1, false
}

// seek returns the index of the first entry with key >= start.
func (t *sstable) seek(start string) int {
	return sort.Search(len(t.entries), func(i int) bool { return t.entries[i].key >= start })
}

// overlaps reports whether the table's key range intersects [lo, hi].
func (t *sstable) overlaps(lo, hi string) bool {
	if len(t.entries) == 0 {
		return false
	}
	return t.maxKey >= lo && t.minKey <= hi
}

// mergeEntries merges several entry slices, each sorted by key, where
// earlier slices take precedence for duplicate keys (newer data first).
// Tombstones are kept when keepTombstones is true (needed unless merging
// into the bottommost level).
func mergeEntries(sources [][]entry, keepTombstones bool) []entry {
	idx := make([]int, len(sources))
	n := 0
	for _, src := range sources {
		n += len(src)
	}
	out := make([]entry, 0, n) // the most the merge can keep
	for {
		best := -1
		var bestKey string
		for s := range sources {
			if idx[s] >= len(sources[s]) {
				continue
			}
			k := sources[s][idx[s]].key
			if best == -1 || k < bestKey {
				best, bestKey = s, k
			}
		}
		if best == -1 {
			return out
		}
		e := sources[best][idx[best]]
		// Consume this key from every source; the winning (newest) copy
		// is the one from the smallest source index.
		for s := range sources {
			for idx[s] < len(sources[s]) && sources[s][idx[s]].key == bestKey {
				if s < best {
					e = sources[s][idx[s]]
					best = s
				}
				idx[s]++
			}
		}
		if e.del && !keepTombstones {
			continue
		}
		out = append(out, e)
	}
}
