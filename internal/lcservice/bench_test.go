package lcservice

import (
	"testing"

	"github.com/holmes-colocation/holmes/internal/kvstore"
	"github.com/holmes-colocation/holmes/internal/ycsb"
)

// benchStores are the four stores, in a fixed order.
var benchStores = []string{"redis", "memcached", "rocksdb", "wiredtiger"}

// benchPreload is a traffic replica's boot: 20k workload-b records.
func benchPreload(store string) Preload {
	return Preload{Store: store, StoreSeed: 1, Workload: ycsb.WorkloadB, Records: 20_000, GenSeed: 2}
}

// benchServedPreload is the boot of the store node-colocation, fig3 and
// fig5 serve: 50k workload-a records, seeded as fig3 seeds them at seed 1.
func benchServedPreload(store string) Preload {
	return Preload{Store: store, StoreSeed: 1, Workload: ycsb.WorkloadA, Records: 50_000, GenSeed: 18}
}

var benchSink kvstore.Store

// BenchmarkPreload times the YCSB load phase of both boots, a-50k (the
// served store) and b-20k (a traffic replica), per store. BenchmarkClone
// compares the replica's second way to boot: clone a store that already
// ran the load.
func BenchmarkPreload(b *testing.B) {
	for _, boot := range []struct {
		name    string
		preload func(string) Preload
	}{{"a-50k", benchServedPreload}, {"b-20k", benchPreload}} {
		for _, name := range benchStores {
			p := boot.preload(name)
			b.Run(boot.name+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s, _, err := p.Load()
					if err != nil {
						b.Fatal(err)
					}
					benchSink = s
				}
			})
		}
	}
}

func BenchmarkClone(b *testing.B) {
	for _, name := range benchStores {
		image, _, err := benchPreload(name).Load()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = image.Clone()
			}
		})
	}
}
