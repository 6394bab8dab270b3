package bloom

import (
	"math/rand"
	"testing"
)

func BenchmarkAdd(b *testing.B) {
	f := NewForCapacity(1_000_000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AddUint64(uint64(i))
	}
}

func BenchmarkMayContain(b *testing.B) {
	f := NewForCapacity(100_000, 8)
	for i := 0; i < 100_000; i++ {
		f.AddUint64(uint64(i * 3))
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MayContainUint64(uint64(rng.Int63()))
	}
}

func BenchmarkBuildPartitioned3425(b *testing.B) {
	// The §5.5 S.B filter: 3425 distinct values, IB/p = 4, m/IB = 8.
	keys := make([]int64, 3425)
	for i := range keys {
		keys[i] = int64(i * 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildPartitioned(keys, 4, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionedProbe(b *testing.B) {
	keys := make([]int64, 3425)
	for i := range keys {
		keys[i] = int64(i * 7)
	}
	pf, err := BuildPartitioned(keys, 4, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf.MayContain(rng.Int63n(24_000))
	}
}

func BenchmarkDigest(b *testing.B) {
	f := NewForCapacity(1000, 8)
	for i := 0; i < 1000; i++ {
		f.AddUint64(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Digest()
	}
}
