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

var benchSink kvstore.Store

// BenchmarkPreload and BenchmarkClone compare the two ways to boot a
// replica: run the YCSB load phase, or clone a store that already ran it.
func BenchmarkPreload(b *testing.B) {
	for _, name := range benchStores {
		p := benchPreload(name)
		b.Run(name, func(b *testing.B) {
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
