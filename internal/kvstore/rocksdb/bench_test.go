package rocksdb

import (
	"fmt"
	"testing"
)

func benchStore(n int) *Store {
	s := New(DefaultConfig())
	for i := 0; i < n; i++ {
		s.Insert(fmt.Sprintf("user%09d", i), make([]byte, 1024))
	}
	return s
}

func BenchmarkRead(b *testing.B) {
	s := benchStore(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Read(fmt.Sprintf("user%09d", i%100_000))
	}
}

func BenchmarkWriteWithCompaction(b *testing.B) {
	s := benchStore(0)
	val := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(fmt.Sprintf("user%09d", i), val)
		s.DrainBackground()
	}
}

func BenchmarkScan100(b *testing.B) {
	s := benchStore(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Scan(fmt.Sprintf("user%09d", i%90_000), 100)
	}
}

func BenchmarkBloomProbe(b *testing.B) {
	keys := make([]string, 100_000)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%09d", i)
	}
	f := bloomOf(keys, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.mayContain(keys[i%len(keys)])
	}
}
