// Benchmarks regenerating the paper's evaluation, one group per table
// or figure. `go test -bench=. -benchmem` runs them all; the
// corresponding full experiments (with parameter sweeps and paper-value
// comparisons) live in cmd/authbench.
package authdb_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"

	"authdb/internal/bloom"
	"authdb/internal/btree"
	"authdb/internal/chain"
	"authdb/internal/core"
	"authdb/internal/digest"
	"authdb/internal/freshness"
	"authdb/internal/repro/embtree"
	"authdb/internal/repro/joinproof"
	"authdb/internal/repro/sigcache"
	"authdb/internal/repro/sim"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/sigagg/crsa"
	"authdb/internal/sigagg/xortest"
	"authdb/internal/storage"
	"authdb/internal/workload"
)

// ---- shared fixtures (built once) ----

const benchN = 20_000 // relation size for structure benchmarks

var (
	onceBAS   sync.Once
	basSys    *core.Relation
	basKeys   []int64
	onceEMB   sync.Once
	embTree   *embtree.Tree
	embCert   embtree.RootCert
	embSign   func([]byte) ([]byte, error)
	embVerify func(msg, sig []byte) error

	onceJoin sync.Once
	joinSB   []int64
)

func basFixture(b *testing.B) (*core.Relation, []int64) {
	b.Helper()
	onceBAS.Do(func() {
		cat, err := core.NewCatalog(bas.New(0), core.DefaultConfig(), 0)
		if err != nil {
			panic(err)
		}
		sys, err := cat.AddRelation(core.DefaultRelation, nil, nil, nil)
		if err != nil {
			panic(err)
		}
		recs := workload.Records(workload.Config{N: benchN, RecLen: 512, Seed: 1})
		basKeys = workload.Keys(recs)
		msg, err := sys.DA.Load(recs, 1)
		if err != nil {
			panic(err)
		}
		if err := sys.Deliver(msg); err != nil {
			panic(err)
		}
		basSys = sys
	})
	return basSys, basKeys
}

func embFixture(b *testing.B) (*embtree.Tree, embtree.RootCert) {
	b.Helper()
	onceEMB.Do(func() {
		scheme := bas.New(0)
		priv, pub, err := scheme.KeyGen(nil)
		if err != nil {
			panic(err)
		}
		recs := workload.Records(workload.Config{N: benchN, RecLen: 512, Seed: 1})
		entries := make([]embtree.LeafEntry, len(recs))
		for i, r := range recs {
			entries[i] = embtree.LeafEntry{Key: r.Key, RID: r.RID, RecDigest: digest.SumConcat(r.Attrs[0])}
		}
		tr, err := embtree.BulkLoad(storage.DefaultPageConfig(), entries)
		if err != nil {
			panic(err)
		}
		embSign = func(m []byte) ([]byte, error) {
			s, err := scheme.Sign(priv, m)
			return []byte(s), err
		}
		cert, err := tr.Certify(1, embSign)
		if err != nil {
			panic(err)
		}
		embVerify = func(m, s []byte) error { return scheme.Verify(pub, m, sigagg.Signature(s)) }
		embTree, embCert = tr, cert
	})
	return embTree, embCert
}

func joinFixture(b *testing.B) {
	b.Helper()
	onceJoin.Do(func() {
		tp := workload.NewTPCE(workload.TPCEConfig{NR: 6850, NS: 89_400, IB: 3425, Seed: 7})
		for v := range tp.Held {
			joinSB = append(joinSB, v)
		}
		slices.Sort(joinSB)
	})
}

// ---- Headline: O(log n) proof construction at scale ----
//
// BenchmarkQuery compares proof construction through the per-shard
// aggregation trees (O(log n) Combine ops) against the linear
// aggregation baseline (k-1 ops) at n=1M records, k=10k results, under
// real BAS elliptic-curve aggregation. Override the relation size with
// AUTHDB_PROOF_N for quick local runs. `go test -bench BenchmarkQuery
// -benchtime 1x` demonstrates the speedup with a single pass.

func proofN() int {
	if s := os.Getenv("AUTHDB_PROOF_N"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 1_000 {
			return v
		}
	}
	return 1_000_000
}

const proofK = 10_000

var (
	onceProof   sync.Once
	proofScheme sigagg.Scheme
	proofTreeQS *core.QueryServer
	proofSigs   []sigagg.Signature // key order: the linear baseline's operands
	proofKeys   []int64
	proofVerify *core.Verifier
)

// proofFixture signs the relation once (in parallel across cores — the
// DataAggregator's signing loop is embarrassingly parallel) and loads a
// query server from it, keeping the signatures in key order for the
// linear baseline.
func proofFixture(b *testing.B) {
	b.Helper()
	onceProof.Do(func() {
		n := proofN()
		scheme := bas.New(0)
		priv, pub, err := scheme.KeyGen(nil)
		if err != nil {
			panic(err)
		}
		bound, err := sigagg.Bind(scheme, pub)
		if err != nil {
			panic(err)
		}
		recs := make([]*core.Record, n)
		proofKeys = make([]int64, n)
		for i := range recs {
			key := int64(i+1) * 10
			proofKeys[i] = key
			recs[i] = &core.Record{
				RID:   uint64(i + 1),
				Key:   key,
				Attrs: [][]byte{[]byte("p")},
				TS:    1,
			}
		}
		upserts := make([]core.SignedRecord, n)
		workers := runtime.GOMAXPROCS(0)
		var wg sync.WaitGroup
		var signErr error
		var errOnce sync.Once
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					left, right := chain.MinRef, chain.MaxRef
					if i > 0 {
						left = recs[i-1].Ref()
					}
					if i < n-1 {
						right = recs[i+1].Ref()
					}
					d := chain.Digest(recs[i], left, right)
					sig, err := bound.Sign(priv, d[:])
					if err != nil {
						errOnce.Do(func() { signErr = err })
						return
					}
					upserts[i] = core.SignedRecord{Rec: recs[i], Sig: sig}
				}
			}(lo, hi)
		}
		wg.Wait()
		if signErr != nil {
			panic(signErr)
		}
		msg := &core.UpdateMsg{TS: 1, Upserts: upserts}
		proofTreeQS = core.NewQueryServer(bound)
		if err := proofTreeQS.Apply(msg); err != nil {
			panic(err)
		}
		proofScheme = bound
		proofSigs = make([]sigagg.Signature, n)
		for i, sr := range upserts {
			proofSigs[i] = sr.Sig
		}
		proofVerify = core.NewVerifier(bound, pub, core.DefaultConfig())
	})
}

func benchProofQueries(b *testing.B) {
	proofFixture(b)
	qs := proofTreeQS
	n := len(proofKeys)
	k := proofK
	if k > n {
		k = n / 2
	}
	rng := rand.New(rand.NewSource(11))
	// Untimed warm-up queries across the keyspace: the first touches of
	// a freshly built million-node fixture pay page faults and GC debt
	// that belong to construction, not to proof building.
	for _, frac := range []int{0, 1, 2, 3} {
		r := frac * (n - k) / 4
		if _, _, err := qs.QueryStamped(proofKeys[r], proofKeys[r+k-1]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	totalOps := 0
	for i := 0; i < b.N; i++ {
		r := rng.Intn(n - k + 1)
		lo, hi := proofKeys[r], proofKeys[r+k-1]
		ans, _, err := qs.QueryStamped(lo, hi)
		if err != nil {
			b.Fatal(err)
		}
		if got := len(ans.Chain.Records); got != k {
			b.Fatalf("got %d records, want %d", got, k)
		}
		totalOps += ans.Ops
		if i == 0 {
			// Every proof must remain verifiable (chain.Verify plus the
			// freshness machinery); checked outside the timed loop cost
			// would be nicer, but one verification documents it.
			b.StopTimer()
			if _, err := proofVerify.VerifyScan(ans.Chain, lo, hi, 10); err != nil {
				b.Fatalf("answer failed verification: %v", err)
			}
			shards := qs.Shards()
			bound := shards*(4*int(math.Log2(float64(n)))+4) + shards
			if ans.Ops > bound {
				b.Fatalf("proof spent %d aggregation ops, O(log n) bound %d", ans.Ops, bound)
			}
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(totalOps)/float64(b.N), "aggops/op")
}

func BenchmarkQuery(b *testing.B) {
	n := proofN()
	k := proofK
	if k > n {
		k = n / 2
	}
	suffix := fmt.Sprintf("/n=%d/k=%d", n, k)
	b.Run("agg=tree"+suffix, func(b *testing.B) {
		proofFixture(b)
		benchProofQueries(b)
	})
	b.Run("agg=linear"+suffix, func(b *testing.B) {
		proofFixture(b)
		benchLinearFold(b, k)
	})
}

// benchLinearFold times the linear baseline: folding the k sorted
// signatures of a random range, k-1 aggregation operations each. The
// first fold is held to the tree's aggregate for the same range.
func benchLinearFold(b *testing.B, k int) {
	n := len(proofSigs)
	rng := rand.New(rand.NewSource(11))
	var agg sigagg.Signature
	totalOps := 0
	for i := 0; i < b.N; i++ {
		r := rng.Intn(n - k + 1)
		var err error
		if agg, err = proofScheme.AggregateInto(agg, proofSigs[r:r+k]); err != nil {
			b.Fatal(err)
		}
		totalOps += k - 1
		if i == 0 {
			b.StopTimer()
			ans, _, err := proofTreeQS.QueryStamped(proofKeys[r], proofKeys[r+k-1])
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(ans.Chain.Agg, agg) {
				b.Fatal("linear fold differs from the tree's aggregate")
			}
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(totalOps)/float64(b.N), "aggops/op")
}

// ---- Table 1: index construction and height ----

func BenchmarkTable1_BulkLoadASign(b *testing.B) {
	cfg := storage.DefaultPageConfig()
	entries := make([]btree.Entry, 100_000)
	for i := range entries {
		entries[i] = btree.Entry{Key: int64(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := btree.BulkLoad(cfg, entries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_HeightFormula(b *testing.B) {
	cfg := storage.DefaultPageConfig()
	for i := 0; i < b.N; i++ {
		_ = cfg.HeightASign(100_000_000)
		_ = cfg.HeightEMB(100_000_000)
	}
}

// ---- Table 3: cryptographic primitives ----

func benchScheme(b *testing.B, scheme sigagg.Scheme) (sigagg.Scheme, sigagg.PrivateKey, sigagg.PublicKey) {
	b.Helper()
	priv, pub, err := scheme.KeyGen(nil)
	if err != nil {
		b.Fatal(err)
	}
	bound, err := sigagg.Bind(scheme, pub)
	if err != nil {
		b.Fatal(err)
	}
	return bound, priv, pub
}

func BenchmarkTable3_BASSign(b *testing.B) {
	scheme, priv, _ := benchScheme(b, bas.New(bas.DefaultPairingCost))
	d := digest.Sum([]byte("bench"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheme.Sign(priv, d[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_BASVerify(b *testing.B) {
	scheme, priv, pub := benchScheme(b, bas.New(bas.DefaultPairingCost))
	d := digest.Sum([]byte("bench"))
	sig, _ := scheme.Sign(priv, d[:])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := scheme.Verify(pub, d[:], sig); err != nil {
			b.Fatal(err)
		}
	}
}

func benchAggregate(b *testing.B, scheme sigagg.Scheme, priv sigagg.PrivateKey, pub sigagg.PublicKey, n int, verify bool) {
	b.Helper()
	digests := make([][]byte, n)
	sigs := make([]sigagg.Signature, n)
	for i := range sigs {
		d := digest.Sum([]byte(fmt.Sprintf("agg-%d", i)))
		digests[i] = d[:]
		var err error
		sigs[i], err = scheme.Sign(priv, d[:])
		if err != nil {
			b.Fatal(err)
		}
	}
	agg, err := scheme.AggregateInto(nil, sigs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if verify {
			if err := scheme.AggregateVerify(pub, digests, agg); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := scheme.AggregateInto(nil, sigs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable3_BASAggregate1000(b *testing.B) {
	scheme, priv, pub := benchScheme(b, bas.New(bas.DefaultPairingCost))
	benchAggregate(b, scheme, priv, pub, 1000, false)
}

func BenchmarkTable3_BASAggregateVerify100(b *testing.B) {
	scheme, priv, pub := benchScheme(b, bas.New(bas.DefaultPairingCost))
	benchAggregate(b, scheme, priv, pub, 100, true)
}

func BenchmarkTable3_CRSASign(b *testing.B) {
	scheme, priv, _ := benchScheme(b, crsa.New(1024))
	d := digest.Sum([]byte("bench"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheme.Sign(priv, d[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_CRSAVerify(b *testing.B) {
	scheme, priv, pub := benchScheme(b, crsa.New(1024))
	d := digest.Sum([]byte("bench"))
	sig, _ := scheme.Sign(priv, d[:])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := scheme.Verify(pub, d[:], sig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_CRSAAggregateVerify1000(b *testing.B) {
	scheme, priv, pub := benchScheme(b, crsa.New(1024))
	benchAggregate(b, scheme, priv, pub, 1000, true)
}

func BenchmarkTable3_SHA512B(b *testing.B) {
	msg := make([]byte, 512)
	b.SetBytes(512)
	for i := 0; i < b.N; i++ {
		digest.Sum(msg)
	}
}

// ---- Table 4: standalone operations ----

func BenchmarkTable4_BASPointQuery(b *testing.B) {
	sys, keys := basFixture(b)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[rng.Intn(len(keys))]
		if _, _, err := sys.QS.QueryStamped(k, k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4_BASRangeQuery(b *testing.B) {
	sys, keys := basFixture(b)
	qg := workload.NewQueryGen(keys, 0.001, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qg.Next()
		if _, _, err := sys.QS.QueryStamped(q.Lo, q.Hi); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4_BASUpdate(b *testing.B) {
	sys, keys := basFixture(b)
	ug := workload.NewUpdateGen(keys, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg, err := sys.DA.Update(ug.Next(), [][]byte{[]byte("v")}, int64(i+10))
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.QS.Apply(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4_BASVerifyRange(b *testing.B) {
	sys, keys := basFixture(b)
	qg := workload.NewQueryGen(keys, 0.001, 5)
	q := qg.Next()
	ans, _, err := sys.QS.QueryStamped(q.Lo, q.Hi)
	if err != nil {
		b.Fatal(err)
	}
	// One answer, verified b.N times: through sys.Verifier every iteration
	// but the first would be a claim-memo hit and never reach the emulated
	// pairings. The paper's client is chain.Verify plus the freshness check.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := chain.Verify(sys.Scheme, sys.Pub, ans.Chain); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Verifier.Staleness(ans.Chain, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4_EMBRangeQuery(b *testing.B) {
	tr, cert := embFixture(b)
	_, keys := basFixture(b)
	qg := workload.NewQueryGen(keys, 0.001, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qg.Next()
		if _, err := tr.RangeQuery(q.Lo, q.Hi, cert); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4_EMBUpdate(b *testing.B) {
	tr, _ := embFixture(b)
	_, keys := basFixture(b)
	ug := workload.NewUpdateGen(keys, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tr.UpdateRecord(ug.Next(), digest.Sum([]byte{byte(i)})) {
			b.Fatal("update failed")
		}
	}
}

func BenchmarkTable4_EMBVerifyRange(b *testing.B) {
	tr, _ := embFixture(b)
	// Earlier benchmarks may have mutated the shared tree; re-certify so
	// the verification target is current.
	cert, err := tr.Certify(2, embSign)
	if err != nil {
		b.Fatal(err)
	}
	embCert = cert
	_, keys := basFixture(b)
	qg := workload.NewQueryGen(keys, 0.001, 8)
	q := qg.Next()
	res, err := tr.RangeQuery(q.Lo, q.Hi, cert)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := embtree.VerifyRange(res, q.Lo, q.Hi, embVerify); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig. 4: join viability surface ----

func BenchmarkFig4_ZSurface(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for ia := 1.0; ia <= 10; ia++ {
			for ibp := 2.0; ibp <= 10; ibp++ {
				_ = joinproof.Z(ia, ibp)
			}
		}
	}
}

// ---- Fig. 6: SigCache analysis and runtime ----

func BenchmarkFig6_AnalyzerSelect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		an, err := sigcache.NewAnalyzer(1<<16, sigcache.Harmonic)
		if err != nil {
			b.Fatal(err)
		}
		an.Select(8)
	}
}

func BenchmarkFig6_AggregateRangeUncached(b *testing.B) {
	benchCacheAggregate(b, 0)
}

func BenchmarkFig6_AggregateRangeCached(b *testing.B) {
	benchCacheAggregate(b, 8)
}

func benchCacheAggregate(b *testing.B, pairs int) {
	b.Helper()
	const n = 1 << 14
	scheme := xortest.New()
	priv, _, _ := scheme.KeyGen(nil)
	leaves := make([]sigagg.Signature, n)
	for i := range leaves {
		d := digest.Sum([]byte(fmt.Sprintf("l-%d", i)))
		leaves[i], _ = scheme.Sign(priv, d[:])
	}
	cache, err := sigcache.NewCache(scheme, leaves, sigcache.Lazy)
	if err != nil {
		b.Fatal(err)
	}
	if pairs > 0 {
		an, err := sigcache.NewAnalyzer(n, sigcache.Uniform)
		if err != nil {
			b.Fatal(err)
		}
		if err := cache.Pin(an.Select(pairs).Nodes); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := rng.Int63n(n) + 1
		lo := rng.Int63n(int64(n) - q + 1)
		if _, _, err := cache.AggregateRange(lo, lo+q-1); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figs. 7 and 9: workload simulation ----

func benchSim(b *testing.B, card int, rootLock bool) {
	b.Helper()
	costs := sim.SchemeCosts{
		Name:        "bench",
		QueryCPU:    func(int) float64 { return 0.002 },
		QueryIO:     func(int) float64 { return 0.010 },
		UpdateCPU:   0.020,
		UpdateIO:    0.010,
		SignDelay:   0.0015,
		AnswerBytes: func(c int) int { return c*512 + 64 },
		UpdateBytes: 576,
		VerifyCPU:   func(int) float64 { return 0.002 },
		RootLock:    rootLock,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultWorkloadConfig()
		cfg.ArrivalRate = 50
		cfg.Duration = 10
		cfg.Cardinality = func(*rand.Rand) int { return card }
		res := sim.RunWorkload(cfg, costs)
		if res.Query.Count == 0 {
			b.Fatal("no transactions")
		}
	}
}

func BenchmarkFig7_SimPointEMB(b *testing.B) { benchSim(b, 1, true) }
func BenchmarkFig7_SimPointBAS(b *testing.B) { benchSim(b, 1, false) }
func BenchmarkFig9_SimRangeEMB(b *testing.B) { benchSim(b, 100, true) }
func BenchmarkFig9_SimRangeBAS(b *testing.B) { benchSim(b, 100, false) }

// ---- Fig. 8: summary publication ----

func BenchmarkFig8_PublishSummary(b *testing.B) {
	scheme := xortest.New()
	priv, _, _ := scheme.KeyGen(nil)
	pub := freshness.NewPublisher(func(d []byte) (sigagg.Signature, error) { return scheme.Sign(priv, d) }, 1_000_000, 0)
	rng := rand.New(rand.NewSource(5))
	ts := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 500; j++ { // ~500 marks per period
			pub.MarkUpdated(rng.Intn(1_000_000))
		}
		ts += 1000
		if _, _, err := pub.Publish(ts); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig. 10: cache maintenance under updates ----

func BenchmarkFig10_UpdateLeafEager(b *testing.B) { benchCacheUpdate(b, sigcache.Eager) }
func BenchmarkFig10_UpdateLeafLazy(b *testing.B)  { benchCacheUpdate(b, sigcache.Lazy) }

func benchCacheUpdate(b *testing.B, strat sigcache.Strategy) {
	b.Helper()
	const n = 1 << 14
	scheme := xortest.New()
	priv, _, _ := scheme.KeyGen(nil)
	leaves := make([]sigagg.Signature, n)
	for i := range leaves {
		d := digest.Sum([]byte(fmt.Sprintf("u-%d", i)))
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
	rng := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.UpdateLeaf(rng.Int63n(n), sig); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig. 11: the certified join filter ----

func BenchmarkFig11_BuildPartitionedFilter(b *testing.B) {
	joinFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bloom.BuildPartitioned(joinSB, 4, 8); err != nil {
			b.Fatal(err)
		}
	}
}
