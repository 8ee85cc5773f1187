package cluster

import (
	"fmt"
	"testing"

	"github.com/holmes-colocation/holmes/internal/faults"
	"github.com/holmes-colocation/holmes/internal/kvstore"
	"github.com/holmes-colocation/holmes/internal/scenario"
)

// stormSpec is a small traffic-only cluster around StormTopology's four
// redis replicas.
func stormSpec(nodes int) Spec {
	spec := DefaultSpec()
	spec.Name = "image-test"
	spec.Nodes = nodes
	spec.Services = nil
	spec.Batch = BatchStream{}
	spec.WarmupSeconds = 0.2
	spec.DurationSeconds = 1.2
	topo := scenario.StormTopology(20_000, spec.WarmupSeconds+spec.DurationSeconds, nil)
	spec.Topology = &topo
	return spec
}

// checkReplicaImages requires that no service holds a preload image
// while none of its replicas is pending, and that every placed replica
// owns its store: no two replicas, and no replica and an image, share
// one.
func checkReplicaImages(t *testing.T, x *run, when string) {
	t.Helper()
	seen := map[kvstore.Store]string{}
	for _, ts := range x.tc.services {
		if ts.image != nil {
			if ts.pending == 0 {
				t.Errorf("%s: %s holds an image with no replica pending", when, ts.spec.Name)
			}
			seen[ts.image] = ts.spec.Name + " image"
		}
		for name, rep := range ts.replicas {
			if other, dup := seen[rep.ns.store]; dup {
				t.Errorf("%s: replica %s shares its store with %s", when, name, other)
			}
			seen[rep.ns.store] = name
		}
	}
}

// TestReplicaImageLifetime pins the replica-boot image's lifetime: after
// the initial placement no service keeps an image and every replica has
// its own store, and the same holds through a node crash, the detector's
// replacements and the node's re-boot, on a fleet where the crash takes
// one replica (a lone re-boot, which preloads afresh) and on one where
// it takes two (replacements pending together, booted from an image).
func TestReplicaImageLifetime(t *testing.T) {
	for _, c := range []struct{ nodes, booted int }{{5, 5}, {2, 6}} {
		nodes := c.nodes
		spec := stormSpec(nodes)
		spec.Chaos = &faults.Spec{Nodes: faults.NodeSpec{
			Crashes: []faults.NodeCrash{{Node: 0, Round: 6, DownRounds: 8}},
		}}
		x, err := newRun(spec, RunOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := x.round(0); err != nil {
			x.stop()
			t.Fatal(err)
		}
		ts := x.tc.services[0]
		if len(ts.replicas) != 4 || ts.pending != 0 || ts.image != nil {
			t.Fatalf("%d nodes, after round 0: %d replicas, %d pending, image %v; want 4, 0, none",
				nodes, len(ts.replicas), ts.pending, ts.image != nil)
		}
		checkReplicaImages(t, x, "initial placement")
		for r := 1; r < x.totalRounds; r++ {
			if err := x.round(r); err != nil {
				x.stop()
				t.Fatal(err)
			}
			checkReplicaImages(t, x, fmt.Sprintf("round %d", r))
		}
		x.stop()
		if x.res.Reboots != 1 || ts.nextIdx != c.booted {
			t.Fatalf("%d nodes: %d reboots and %d replicas booted, want 1 and %d",
				nodes, x.res.Reboots, ts.nextIdx, c.booted)
		}
		if ts.pending != 0 || ts.image != nil {
			t.Errorf("%d nodes, run end: %d pending, image %v", nodes, ts.pending, ts.image != nil)
		}
	}
}

// TestReplicaImageDroppedOnPlacementFailure places the first of four
// replicas on a node with room for one: the image built for it stays
// while the other three are pending, and goes with the last of them
// when they exhaust their placement retries.
func TestReplicaImageDroppedOnPlacementFailure(t *testing.T) {
	spec := stormSpec(1)
	spec.CoresPerNode = 1
	spec.ReservedCPUs = 1
	x, err := newRun(spec, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer x.stop()
	if err := x.placement(0); err != nil {
		t.Fatal(err)
	}
	ts := x.tc.services[0]
	if len(ts.replicas) != 1 || ts.pending != 3 || ts.image == nil {
		t.Fatalf("after placement: %d replicas, %d pending, image %v; want 1, 3, held",
			len(ts.replicas), ts.pending, ts.image != nil)
	}
	checkReplicaImages(t, x, "partial placement")
	for _, p := range x.queue {
		if p.rep == nil {
			continue
		}
		if ts.image == nil {
			t.Fatalf("image dropped with %d replicas still pending", ts.pending)
		}
		x.tc.placementFailed(p)
	}
	if ts.pending != 0 || ts.image != nil {
		t.Fatalf("after every pending replica failed: %d pending, image %v", ts.pending, ts.image != nil)
	}
}
