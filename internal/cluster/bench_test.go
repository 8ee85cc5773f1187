package cluster

import "testing"

// benchRegistry is a 64-node registry with heterogeneous load, the
// scheduler's worst supported case.
func benchRegistry() *Registry {
	sts := make([]NodeState, 64)
	for i := range sts {
		sts[i] = NodeState{ID: i, HB: Heartbeat{
			Node:            i,
			SmoothedVPI:     float64((i * 7) % 60),
			ServiceThreads:  (i * 3) % 12,
			BatchThreads:    (i * 5) % 16,
			CapacityThreads: 32,
			Lendable:        i % 4,
		}}
		if i%16 == 3 {
			sts[i].Hot = 2
		}
	}
	return loadRegistry(sts, defaultShardSize)
}

func BenchmarkVPIAwarePlace64Nodes(b *testing.B) {
	g := benchRegistry()
	req := PodRequest{Name: "batch-bench", Threads: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if (VPIAware{}).Place(g, req) < 0 {
			b.Fatal("no node fit")
		}
	}
}

func BenchmarkBinPackPlace64Nodes(b *testing.B) {
	g := benchRegistry()
	req := PodRequest{Name: "batch-bench", Threads: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if (BinPack{}).Place(g, req) < 0 {
			b.Fatal("no node fit")
		}
	}
}
