// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - SigCache's closed-form P(Ti,j) versus the naive O(N) summation
//     (the reduction that makes Algorithm 1 feasible at N=10^6);
//   - delta-varint bitmap compression versus shipping the raw bitmap
//     (the property that makes summaries proportional to update count);
//   - lazy coalescing of repeated cache invalidations versus eager
//     per-update refresh (§4.3);
//   - the mirror optimization halving Algorithm 1's candidate set;
//   - chained signatures versus a per-query Merkle VO for range proofs
//     (the core architectural bet of the paper).
package authdb_test

import (
	"fmt"
	"math/rand"
	"testing"

	"authdb/internal/digest"
	"authdb/internal/freshness"
	"authdb/internal/repro/sigcache"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/xortest"
)

// ---- closed-form vs naive node probability ----

func BenchmarkAblation_ProbClosedForm(b *testing.B) {
	an, err := sigcache.NewAnalyzer(1<<16, sigcache.Harmonic)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = an.Prob(sigcache.Node{Level: 10, Pos: int64(i % 64)})
	}
}

func BenchmarkAblation_ProbNaive(b *testing.B) {
	an, err := sigcache.NewAnalyzer(1<<16, sigcache.Harmonic)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = an.ProbNaive(sigcache.Node{Level: 10, Pos: int64(i % 64)})
	}
}

// ---- compressed vs raw summary bitmaps ----

func BenchmarkAblation_SummaryCompressed(b *testing.B) {
	marked := sparse(1_000_000, 500)
	pub := freshness.NewPublisher(func([]byte) (sigagg.Signature, error) { return nil, nil }, 1_000_000, 0)
	b.ResetTimer()
	var bytes int
	for i := 0; i < b.N; i++ {
		for _, slot := range marked {
			pub.MarkUpdated(slot)
		}
		s, _, err := pub.Next(int64(i + 1))
		if err == nil {
			_, _, err = pub.ReplaySummary(s)
		}
		if err != nil {
			b.Fatal(err)
		}
		bytes = len(s.Compressed)
	}
	b.ReportMetric(float64(bytes), "bytes/summary")
}

func BenchmarkAblation_SummaryRaw(b *testing.B) {
	// The ablated alternative: ship the raw bitmap (N/8 bytes per
	// period regardless of update count).
	marked := sparse(1_000_000, 500)
	raw := make([]byte, 1_000_000/8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range raw {
			raw[j] = 0
		}
		for _, pos := range marked {
			raw[pos/8] |= 1 << (pos % 8)
		}
	}
	b.ReportMetric(float64(len(raw)), "bytes/summary")
}

// sparse is marks random slots among n (repeats allowed).
func sparse(n, marks int) []int {
	rng := rand.New(rand.NewSource(17))
	slots := make([]int, marks)
	for i := range slots {
		slots[i] = rng.Intn(n)
	}
	return slots
}

// ---- eager refresh vs lazy coalescing under repeated updates ----

func BenchmarkAblation_RepeatedUpdatesEager(b *testing.B) {
	benchRepeatedUpdates(b, sigcache.Eager)
}

func BenchmarkAblation_RepeatedUpdatesLazy(b *testing.B) {
	benchRepeatedUpdates(b, sigcache.Lazy)
}

func benchRepeatedUpdates(b *testing.B, strat sigcache.Strategy) {
	b.Helper()
	const n = 1 << 12
	scheme := xortest.New()
	priv, _, _ := scheme.KeyGen(nil)
	leaves := make([]sigagg.Signature, n)
	for i := range leaves {
		d := digest.Sum([]byte(fmt.Sprintf("ab-%d", i)))
		leaves[i], _ = scheme.Sign(priv, d[:])
	}
	cache, err := sigcache.NewCache(scheme, leaves, strat)
	if err != nil {
		b.Fatal(err)
	}
	an, _ := sigcache.NewAnalyzer(n, sigcache.Uniform)
	if err := cache.Pin(an.Select(8).Nodes); err != nil {
		b.Fatal(err)
	}
	sig := leaves[0].Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A hot record is updated 8 times between queries; lazy
		// coalesces the refresh into one remove/add pair per node.
		for k := 0; k < 8; k++ {
			if _, err := cache.UpdateLeaf(7, sig); err != nil {
				b.Fatal(err)
			}
		}
		if _, _, err := cache.AggregateRange(0, n-1); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- mirror optimization in Algorithm 1 ----

func BenchmarkAblation_SelectWithMirrors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		an, err := sigcache.NewAnalyzer(1<<14, sigcache.Uniform)
		if err != nil {
			b.Fatal(err)
		}
		an.Select(8) // evaluates only the left half of each level
	}
}

// ---- chained-aggregate VO vs Merkle VO construction ----

func BenchmarkAblation_ChainAggregateProof(b *testing.B) {
	// Building a BAS-style proof for a 100-record answer: one aggregate
	// over the precomputed record signatures.
	scheme := xortest.New()
	priv, _, _ := scheme.KeyGen(nil)
	sigs := make([]sigagg.Signature, 100)
	for i := range sigs {
		d := digest.Sum([]byte(fmt.Sprintf("c-%d", i)))
		sigs[i], _ = scheme.Sign(priv, d[:])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheme.AggregateInto(nil, sigs); err != nil {
			b.Fatal(err)
		}
	}
}
