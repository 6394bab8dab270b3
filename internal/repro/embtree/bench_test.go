package embtree

import (
	"fmt"
	"math/rand"
	"testing"

	"authdb/internal/digest"
	"authdb/internal/storage"
)

func benchTree(b *testing.B, n int) *Tree {
	b.Helper()
	entries := make([]LeafEntry, n)
	for i := range entries {
		entries[i] = LeafEntry{
			Key: int64(i) * 2, RID: uint64(i),
			RecDigest: digest.Sum([]byte(fmt.Sprintf("r-%d", i))),
		}
	}
	tr, err := BulkLoad(storage.DefaultPageConfig(), entries)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func BenchmarkUpdateRecord(b *testing.B) {
	// The per-update digest path to the root — the cost the paper's
	// scheme avoids.
	tr := benchTree(b, 1_000_000)
	rng := rand.New(rand.NewSource(1))
	d := digest.Sum([]byte("new"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.UpdateRecord(rng.Int63n(1_000_000)*2, d)
	}
}

func BenchmarkRangeQuery100(b *testing.B) {
	tr := benchTree(b, 1_000_000)
	cert := RootCert{Root: tr.RootDigest(), TS: 1}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Int63n(1_999_800)
		if _, err := tr.RangeQuery(lo, lo+200, cert); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyRange100(b *testing.B) {
	tr := benchTree(b, 100_000)
	cert := RootCert{Root: tr.RootDigest(), TS: 1}
	res, err := tr.RangeQuery(50_000, 50_200, cert)
	if err != nil {
		b.Fatal(err)
	}
	verify := func(msg, sig []byte) error { return nil } // digest-only cost
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyRange(res, 50_000, 50_200, verify); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBulkLoad100k(b *testing.B) {
	entries := make([]LeafEntry, 100_000)
	for i := range entries {
		entries[i] = LeafEntry{Key: int64(i)}
	}
	cfg := storage.DefaultPageConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BulkLoad(cfg, entries); err != nil {
			b.Fatal(err)
		}
	}
}
