package cluster

import (
	"math"
	"sort"
)

// defaultShardSize is the node-ID range one registry shard covers. Shards
// exist for cost, not semantics: every aggregate and every placement
// decision is defined over the whole fleet, and the differential tests pin
// that any shard size (including 1 and "whole fleet") produces identical
// decisions.
const defaultShardSize = 32

// Registry is the control plane's sharded node-state store. The naive
// registry was a flat []NodeState that every placement decision and every
// round-level question ("is anything hot?", "could this pod ever fit?")
// answered by rescanning the fleet; at 256-1024 nodes with tens of
// thousands of pods those rescans dominate the round loop. The sharded
// registry partitions the fleet by node-ID range and keeps derived state
// that answers those questions without the rescan:
//
//   - the fleet's hot-node count, maintained by delta on every mutation —
//     a delivered heartbeat, a placement booking, a detector verdict — so
//     the reconciler's "is anything hot?" is O(1);
//   - lazily rebuilt per-shard bounds and score orders (max free threads,
//     max capacity, per-QoS candidate orders for the scoring placer),
//     recomputed only when a shard was actually touched since last read.
//     With the level-of-detail policy skipping quiescent nodes'
//     heartbeats, most shards stay clean for most rounds.
//
// All mutation goes through Reset/Update so the derived state cannot
// drift from the states; TestRegistryAggregatesDifferential recomputes
// it from scratch after every scripted chaos round and asserts equality.
type Registry struct {
	states []NodeState
	shards []shard
	hot    int // live nodes with Hot > 0, delta-maintained
}

// shard is one node-ID range's derived state.
type shard struct {
	lo, hi int // node-ID range [lo, hi)

	// Lazily recomputed when aggDirty (cheap bounds).
	maxFree     int // max free threads over non-dead nodes
	maxCapacity int // max capacity over non-dead nodes
	aggDirty    bool

	// Lazily rebuilt when orderDirty: node IDs sorted by (nodeScore, ID)
	// for each QoS class — the scoring placer's shard-local candidate
	// ranking (the walk-in-order equivalent of a min-score heap).
	gOrder, bOrder []int
	orderDirty     bool
}

// newRegistry builds a registry for n nodes partitioned into shards of
// shardSize IDs each (shardSize <= 0 uses the default).
func newRegistry(n, shardSize int) *Registry {
	if shardSize <= 0 {
		shardSize = defaultShardSize
	}
	g := &Registry{states: make([]NodeState, n)}
	for lo := 0; lo < n; lo += shardSize {
		hi := lo + shardSize
		if hi > n {
			hi = n
		}
		g.shards = append(g.shards, shard{lo: lo, hi: hi, aggDirty: true, orderDirty: true})
	}
	for i := range g.states {
		g.states[i].ID = i
	}
	return g
}

// States exposes the backing slice for read-only passes (rollups, the
// reconciler, traffic reconciliation). Mutating an entry
// directly desynchronizes the aggregates — use Reset or Update.
func (g *Registry) States() []NodeState { return g.states }

// shardOf returns the shard containing node i. Shards are equally sized
// except the last, so this is a division, not a search.
func (g *Registry) shardOf(i int) *shard {
	size := g.shards[0].hi - g.shards[0].lo
	return &g.shards[i/size]
}

// liveHot is node st's contribution to the fleet hot count.
func liveHot(st *NodeState) int {
	if !st.Dead && st.Hot > 0 {
		return 1
	}
	return 0
}

// Reset replaces node i's entry wholesale (boot, reboot, rejoin).
func (g *Registry) Reset(i int, st NodeState) {
	g.Update(i, func(cur *NodeState) { *cur = st })
}

// Update applies fn to node i's entry, folds the hot-count delta into the
// fleet total and marks the node's shard for lazy recomputation.
func (g *Registry) Update(i int, fn func(*NodeState)) {
	st := &g.states[i]
	h0 := liveHot(st)
	fn(st)
	st.ID = i // the ID is the registry's key, not the caller's to change
	g.hot += liveHot(st) - h0
	sh := g.shardOf(i)
	sh.aggDirty = true
	sh.orderDirty = true
}

// HotNodes returns how many live nodes currently have a hot streak — the
// reconciler's O(1) early-out: no hot nodes, no eviction scan.
func (g *Registry) HotNodes() int { return g.hot }

// AnyNodeCouldFit reports whether the request would fit some live node if
// that node were empty — distinguishing "can never be placed" (a spec
// error) from "no capacity right now" (retry next round) — answered from
// the per-shard capacity bound. Dead nodes don't count: a fleet whose
// only capacity-capable nodes are permanently dead can never place the
// pod, and must surface that instead of retrying forever.
func (g *Registry) AnyNodeCouldFit(req PodRequest) bool {
	for si := range g.shards {
		sh := &g.shards[si]
		sh.ensureAgg(g.states)
		if req.Threads <= sh.maxCapacity {
			return true
		}
	}
	return false
}

// ensureAgg recomputes the shard's lazy bounds if anything in the shard
// changed since they were last read.
func (s *shard) ensureAgg(states []NodeState) {
	if !s.aggDirty {
		return
	}
	s.maxFree = math.MinInt32
	s.maxCapacity = math.MinInt32
	for i := s.lo; i < s.hi; i++ {
		st := &states[i]
		if st.Dead {
			continue
		}
		if free := st.HB.CapacityThreads - st.HB.UsedThreads(); free > s.maxFree {
			s.maxFree = free
		}
		if st.HB.CapacityThreads > s.maxCapacity {
			s.maxCapacity = st.HB.CapacityThreads
		}
	}
	s.aggDirty = false
}

// ensureOrders rebuilds the shard's per-QoS candidate orders if dirty:
// live node IDs sorted by (nodeScore, ID) ascending, so the scoring
// placer's shard-local best fitting candidate is the first order entry
// that passes the fit check.
func (s *shard) ensureOrders(states []NodeState) {
	if !s.orderDirty {
		return
	}
	s.gOrder = s.gOrder[:0]
	s.bOrder = s.bOrder[:0]
	for i := s.lo; i < s.hi; i++ {
		if states[i].Dead {
			continue
		}
		s.gOrder = append(s.gOrder, i)
		s.bOrder = append(s.bOrder, i)
	}
	sortByScore := func(order []int, guaranteed bool) {
		sort.Slice(order, func(a, b int) bool {
			sa := nodeScore(states[order[a]], guaranteed)
			sb := nodeScore(states[order[b]], guaranteed)
			if sa != sb {
				return sa < sb
			}
			return order[a] < order[b]
		})
	}
	sortByScore(s.gOrder, true)
	sortByScore(s.bOrder, false)
	s.orderDirty = false
}
