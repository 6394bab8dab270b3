// Caching: proof-construction cost, three ways. The linear baseline
// folds every result signature (the paper's starting point, §3.3): k-1
// operations for a k-record answer; the per-shard aggregation trees —
// what the query server runs — cut that to O(log n) combines; SigCache
// (§4) pins a handful of strategically chosen aggregates, selected by
// Algorithm 1's utility analysis, over the same leaf signatures.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"authdb/internal/core"
	"authdb/internal/repro/sigcache"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/xortest"
)

func main() {
	// The analysis side: which nodes of the conceptual signature tree
	// are worth caching, under a short-query-biased (harmonic) and a
	// uniform cardinality distribution?
	const n = 1 << 16
	for _, d := range []struct {
		name string
		dist sigcache.Dist
	}{{"harmonic", sigcache.Harmonic}, {"uniform", sigcache.Uniform}} {
		an, err := sigcache.NewAnalyzer(n, d.dist)
		if err != nil {
			log.Fatal(err)
		}
		sel := an.Select(8)
		final := sel.CostAfterPair[len(sel.CostAfterPair)-1]
		fmt.Printf("%-9s N=%d: base cost %.0f ops/query -> %.0f with 8 cached pairs (-%.0f%%)\n",
			d.name, n, an.BaseCost(), final, 100*(1-final/an.BaseCost()))
		fmt.Printf("          first pairs: %v %v %v %v\n",
			sel.Nodes[0], sel.Nodes[1], sel.Nodes[2], sel.Nodes[3])
	}

	// The runtime side, on one signed relation. The xortest scheme stands
	// in for BAS so the demo is instant; operation counts are
	// scheme-independent.
	cat, err := core.NewCatalog(xortest.New(), core.DefaultConfig(), 0)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := cat.AddRelation(core.DefaultRelation, nil, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	const nRecs = 4096
	recs := make([]*core.Record, nRecs)
	for i := range recs {
		recs[i] = &core.Record{Key: int64(i+1) * 10, Attrs: [][]byte{[]byte("v")}}
	}
	msg, err := sys.DA.Load(recs, 1)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Deliver(msg); err != nil {
		log.Fatal(err)
	}
	// SigCache over the very signatures the owner just disseminated:
	// record i sits at leaf position i (4096 is already a power of two).
	leaves := make([]sigagg.Signature, nRecs)
	for i, sr := range msg.Upserts {
		leaves[i] = sr.Sig
	}
	cache, err := sigcache.NewCache(sys.Scheme, leaves, sigcache.Lazy)
	if err != nil {
		log.Fatal(err)
	}
	an, err := sigcache.NewAnalyzer(nRecs, sigcache.Uniform)
	if err != nil {
		log.Fatal(err)
	}
	if err := cache.Pin(an.Select(8).Nodes); err != nil {
		log.Fatal(err)
	}

	// One uniform query stream, costed three ways; agg returns the
	// aggregation ops one range [lo,hi] of key positions costs.
	workload := func(agg func(lo, hi int64) int) (int, int) {
		rng := rand.New(rand.NewSource(7))
		totalOps, queries := 0, 0
		for i := 0; i < 500; i++ {
			q := rng.Int63n(nRecs) + 1
			lo := rng.Int63n(int64(nRecs)-q+1) + 1
			totalOps += agg(lo, lo+q-1)
			queries++
		}
		return totalOps, queries
	}
	// One server answer per range, costed by its records (the linear
	// baseline) and by the tree ops it reports.
	viaServer := func(ops func(*core.Answer) int) func(lo, hi int64) int {
		return func(lo, hi int64) int {
			ans, _, err := sys.QS.QueryStamped(lo*10, hi*10)
			if err != nil {
				log.Fatal(err)
			}
			return ops(ans)
		}
	}

	linear, q := workload(viaServer(func(ans *core.Answer) int { return len(ans.Chain.Records) - 1 }))
	tree, _ := workload(viaServer(func(ans *core.Answer) int { return ans.Ops }))
	cached, _ := workload(func(lo, hi int64) int {
		_, ops, err := cache.AggregateRange(lo-1, hi-1)
		if err != nil {
			log.Fatal(err)
		}
		return ops
	})
	fmt.Printf("\nproof construction over %d uniform queries (N=%d):\n", q, nRecs)
	fmt.Printf("  linear baseline   : %7d aggregation ops\n", linear)
	fmt.Printf("  aggregation trees : %7d aggregation ops (-%.1f%%)\n",
		tree, 100*(1-float64(tree)/float64(linear)))
	fmt.Printf("  SigCache, 8 pairs : %7d aggregation ops (-%.1f%%), cache hits: %d\n",
		cached, 100*(1-float64(cached)/float64(linear)), cache.Stats().Hits)
}
