package btree

import (
	"math/rand"
	"testing"

	"authdb/internal/storage"
)

func benchTree(b *testing.B, n int) *Tree {
	b.Helper()
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: int64(i) * 2, RID: uint64(i)}
	}
	tr, err := BulkLoad(storage.DefaultPageConfig(), entries)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func BenchmarkGet(b *testing.B) {
	tr := benchTree(b, 1_000_000)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(rng.Int63n(2_000_000))
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := benchTree(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(Entry{Key: int64(200_001 + i)})
	}
}

func BenchmarkDelete(b *testing.B) {
	tr := benchTree(b, 100_000)
	// Pre-insert keys to delete so the benchmark never exhausts.
	for i := 0; i < 1_000_000; i++ {
		tr.Insert(Entry{Key: int64(300_000 + i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N && i < 1_000_000; i++ {
		tr.Delete(int64(300_000 + i))
	}
}

func BenchmarkRangeWithBoundaries(b *testing.B) {
	tr := benchTree(b, 1_000_000)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Int63n(1_998_000)
		tr.RangeWithBoundaries(lo, lo+200)
	}
}

func BenchmarkUpdateSig(b *testing.B) {
	tr := benchTree(b, 1_000_000)
	sig := make([]byte, 20)
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Update(rng.Int63n(1_000_000)*2, sig)
	}
}

func BenchmarkBulkLoad1M(b *testing.B) {
	entries := make([]Entry, 1_000_000)
	for i := range entries {
		entries[i] = Entry{Key: int64(i)}
	}
	cfg := storage.DefaultPageConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BulkLoad(cfg, entries); err != nil {
			b.Fatal(err)
		}
	}
}
