package cluster

import "testing"

// lcg is a tiny deterministic generator for test schedules.
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g)
}

func (g *lcg) intn(n int) int { return int(g.next() % uint64(n)) }

// refHot recomputes the fleet hot count from scratch.
func refHot(states []NodeState) int {
	hot := 0
	for i := range states {
		if !states[i].Dead && states[i].Hot > 0 {
			hot++
		}
	}
	return hot
}

// chaosMutate applies one pseudo-random registry transition: a delivered
// heartbeat, a placement booking, a crash, a partition (missed
// heartbeats accruing suspicion), a death verdict, or a reboot.
func chaosMutate(g *Registry, rng *lcg, i int) {
	switch rng.intn(7) {
	case 0: // delivered heartbeat
		trend := float64(rng.intn(400)) / 10
		lend := rng.intn(5)
		used := rng.intn(20)
		g.Update(i, func(st *NodeState) {
			st.TrendVPI = trend
			st.HB.SmoothedVPI = trend
			st.HB.Lendable = lend
			st.HB.BatchThreads = used
			st.MissedHB = 0
			st.Suspect = false
			if st.TrendVPI >= 25 {
				st.Hot++
			} else {
				st.Hot = 0
			}
		})
	case 1: // placement booking
		threads := 1 + rng.intn(6)
		g.Update(i, func(st *NodeState) {
			if st.HB.UsedThreads()+threads <= st.HB.CapacityThreads {
				st.HB.BatchPods++
				st.HB.BatchThreads += threads
			}
		})
	case 2: // service booking
		threads := 2 + rng.intn(4)
		g.Update(i, func(st *NodeState) {
			if st.HB.UsedThreads()+threads <= st.HB.CapacityThreads {
				st.HB.ServicePods++
				st.HB.ServiceThreads += threads
			}
		})
	case 3: // partition: heartbeats stop arriving
		g.Update(i, func(st *NodeState) {
			st.MissedHB++
			if !st.Dead {
				st.Suspect = st.MissedHB >= 3
			}
		})
	case 4: // death verdict
		g.Update(i, func(st *NodeState) {
			st.Dead = true
			st.Suspect = true
		})
	case 5: // reboot / rejoin: fresh entry
		g.Reset(i, NodeState{ID: i, HB: Heartbeat{CapacityThreads: 8 + 8*rng.intn(2)}})
	case 6: // eviction re-arm
		g.Update(i, func(st *NodeState) { st.Hot = 0 })
	}
}

// TestRegistryAggregatesDifferential drives registries through a scripted
// chaos schedule (crashes, partitions, reboots, placements, heartbeats)
// and asserts after every round that (a) the delta-maintained hot count
// and the shard-bounded capacity check equal a from-scratch recompute
// and (b) every placer's sharded Place decision equals its flat
// reference on the same states — across shard sizes from one node per
// shard to one shard for the whole fleet.
func TestRegistryAggregatesDifferential(t *testing.T) {
	const nNodes = 77
	for _, shardSize := range []int{1, 5, 32, 4096} {
		rng := lcg(42) // same schedule for every shard size
		g := newRegistry(nNodes, shardSize)
		for i := 0; i < nNodes; i++ {
			g.Reset(i, NodeState{ID: i, HB: Heartbeat{CapacityThreads: 8 + 8*(i%2)}})
		}
		placers := []Placer{BinPack{}, VPIAware{}, ScoringPlacer{}}
		for round := 0; round < 60; round++ {
			for m := 0; m < 10; m++ {
				chaosMutate(g, &rng, rng.intn(nNodes))
			}
			if hot := refHot(g.States()); g.HotNodes() != hot {
				t.Fatalf("shard %d round %d: hot count %d != reference %d",
					shardSize, round, g.HotNodes(), hot)
			}
			for threads := 1; threads <= 20; threads += 6 {
				req := PodRequest{Threads: threads}
				if got, want := g.AnyNodeCouldFit(req), anyNodeCouldFit(g.States(), req); got != want {
					t.Fatalf("shard %d round %d: AnyNodeCouldFit(%d) = %v, reference %v",
						shardSize, round, threads, got, want)
				}
			}
			for _, pl := range placers {
				for _, req := range []PodRequest{
					{Threads: 1 + round%5},
					{Threads: 2 + round%7, Guaranteed: true},
					{Threads: 4},
				} {
					want := pl.(flatPlacer).placeFlat(g.States(), req)
					got := pl.Place(g, req)
					if got != want {
						t.Fatalf("shard %d round %d: %s Place(%+v) = %d, flat reference %d",
							shardSize, round, pl.Name(), req, got, want)
					}
				}
			}
		}
	}
}

// TestAnyNodeCouldFitSkipsDead pins the bugfix: a fleet whose only
// capacity-capable nodes are permanently dead can never place the pod and
// must say so, instead of classifying it "no capacity right now" and
// retrying forever. Node 0 is alive but undersized; every node big enough
// is dead.
func TestAnyNodeCouldFitSkipsDead(t *testing.T) {
	states := []NodeState{
		{ID: 0, HB: Heartbeat{CapacityThreads: 4}},
		{ID: 1, HB: Heartbeat{CapacityThreads: 16}, Dead: true},
		{ID: 2, HB: Heartbeat{CapacityThreads: 16}, Dead: true},
	}
	req := PodRequest{Guaranteed: true, Threads: 8}
	if anyNodeCouldFit(states, req) {
		t.Fatal("anyNodeCouldFit counted dead nodes as placeable capacity")
	}
	if !anyNodeCouldFit(states, PodRequest{Threads: 4}) {
		t.Fatal("anyNodeCouldFit rejected a pod the live node could hold")
	}
	g := loadRegistry(states, 2)
	if g.AnyNodeCouldFit(req) {
		t.Fatal("Registry.AnyNodeCouldFit counted dead nodes as placeable capacity")
	}
	if !g.AnyNodeCouldFit(PodRequest{Threads: 4}) {
		t.Fatal("Registry.AnyNodeCouldFit rejected a pod the live node could hold")
	}
}
