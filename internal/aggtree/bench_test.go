package aggtree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"authdb/internal/digest"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
)

// The benchmarks run on the real scheme at the repo benchmark's size:
// bas, n = 20 000, 100-row ranges.
const (
	benchN    = 20_000
	benchRows = 100
)

var (
	benchOnce    sync.Once
	benchScheme  = bas.New(0)
	benchEntries []Entry
)

// entriesForBench returns benchN entries holding distinct valid BAS
// signatures. Only 64 are signed; the rest are running aggregates of
// those — curve points like any other, at a fraction of the set-up time.
func entriesForBench(b *testing.B) []Entry {
	b.Helper()
	benchOnce.Do(func() {
		priv, _, err := benchScheme.KeyGen(rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		base := make([]sigagg.Signature, 64)
		for i := range base {
			d := digest.Sum([]byte(fmt.Sprintf("bench-%d", i)))
			if base[i], err = benchScheme.Sign(priv, d[:]); err != nil {
				b.Fatal(err)
			}
		}
		benchEntries = make([]Entry, benchN)
		run := base[0]
		for i := range benchEntries {
			if run, err = benchScheme.Add(run, base[(i*7+1)%len(base)]); err != nil {
				b.Fatal(err)
			}
			benchEntries[i] = Entry{Key: int64(i), RID: uint64(i), Sig: run}
		}
	})
	return benchEntries
}

func BenchmarkAggRange(b *testing.B) {
	tr, _, err := BulkLoad(benchScheme, entriesForBench(b))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	totalOps := 0
	for i := 0; i < b.N; i++ {
		lo := rng.Int63n(benchN - benchRows + 1)
		_, ops, err := tr.AggRange(lo, lo+benchRows-1)
		if err != nil {
			b.Fatal(err)
		}
		totalOps += ops
	}
	b.ReportMetric(float64(totalOps)/float64(b.N), "aggops/op")
}

func BenchmarkUpsert(b *testing.B) {
	entries := entriesForBench(b)
	tr, _, err := BulkLoad(benchScheme, entries)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Replace a stored key's signature with another entry's: the
		// update path of a served relation.
		e := entries[rng.Intn(benchN)]
		e.Key = rng.Int63n(benchN)
		if _, _, err := tr.Upsert(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	entries := entriesForBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := BulkLoad(benchScheme, entries); err != nil {
			b.Fatal(err)
		}
	}
}
