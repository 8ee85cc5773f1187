package cluster

import "testing"

// Flat reference implementations: every placement decision and the
// could-ever-fit check answered by a plain scan over the node states,
// with no shards, bounds or candidate orders. They are the differential
// oracle for the production Placer.Place and Registry.AnyNodeCouldFit,
// which must return exactly what these do on Registry.States().

// flatPlacer is a placer's full-rescan reference.
type flatPlacer interface {
	placeFlat(states []NodeState, req PodRequest) int
}

// placeFlat is BinPack's reference: first fit by node ID.
func (BinPack) placeFlat(states []NodeState, req PodRequest) int {
	for _, st := range states {
		if fits(st, req) {
			return st.ID
		}
	}
	return -1
}

// placeFlat is VPIAware's reference: the tiered selection over every
// fitting node.
func (VPIAware) placeFlat(states []NodeState, req PodRequest) int {
	best, bestAvoid := -1, -1
	var bestA, bestB, avoidA, avoidB float64
	for _, st := range states {
		if !fits(st, req) {
			continue
		}
		a, b, avoid := vpiKey(st, req.Guaranteed)
		if avoid {
			if vpiBetter(a, b, st.ID, avoidA, avoidB, bestAvoid) {
				bestAvoid, avoidA, avoidB = st.ID, a, b
			}
			continue
		}
		if vpiBetter(a, b, st.ID, bestA, bestB, best) {
			best, bestA, bestB = st.ID, a, b
		}
	}
	if best < 0 {
		return bestAvoid
	}
	return best
}

// placeFlat is ScoringPlacer's reference: minimize (nodeScore, ID) over
// all fitting nodes.
func (ScoringPlacer) placeFlat(states []NodeState, req PodRequest) int {
	best := -1
	var bestScore float64
	for _, st := range states {
		if !fits(st, req) {
			continue
		}
		s := nodeScore(st, req.Guaranteed)
		if best < 0 || s < bestScore || (s == bestScore && st.ID < best) {
			best, bestScore = st.ID, s
		}
	}
	return best
}

// anyNodeCouldFit is Registry.AnyNodeCouldFit's reference: does any live
// node have the capacity to hold the request if it were empty?
func anyNodeCouldFit(states []NodeState, req PodRequest) bool {
	for _, st := range states {
		if !st.Dead && req.Threads <= st.HB.CapacityThreads {
			return true
		}
	}
	return false
}

// loadRegistry builds a registry holding sts, shardSize nodes per shard.
func loadRegistry(sts []NodeState, shardSize int) *Registry {
	g := newRegistry(len(sts), shardSize)
	for i, st := range sts {
		g.Reset(i, st)
	}
	return g
}

// placeChecked answers req on sts with the production placer, failing
// the test unless every shard size agrees with the flat reference.
func placeChecked(t *testing.T, p Placer, sts []NodeState, req PodRequest) int {
	t.Helper()
	want := p.(flatPlacer).placeFlat(sts, req)
	for _, shardSize := range []int{1, 2, len(sts)} {
		if got := p.Place(loadRegistry(sts, shardSize), req); got != want {
			t.Fatalf("%s on shard size %d placed %+v on node %d, flat reference %d",
				p.Name(), shardSize, req, got, want)
		}
	}
	return want
}
