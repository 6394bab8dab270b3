package core_test

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"authdb/internal/anscache"
	"authdb/internal/core"
	"authdb/internal/query"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/xortest"
	"authdb/internal/wire"
)

// A relation's range answers are served through the plan engine's one
// answer cache (query.Engine.Serve on a bare scan): these tests hold the
// cache to the stamps QueryStamped reads, shard by shard.

// scanFixture is a relation of n records, keys 10, 20, …, 10n loaded at
// TS 100, served by an engine under core.DefaultRelation. No period
// closes, so every summary tail is empty.
type scanFixture struct {
	sys *core.Relation
	eng *query.Engine
}

func newScanFixture(t *testing.T, scheme sigagg.Scheme, n int, opts ...query.EngineOption) *scanFixture {
	t.Helper()
	cat, err := core.NewCatalog(scheme, core.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := cat.AddRelation(core.DefaultRelation, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*core.Record, n)
	for i := range recs {
		recs[i] = &core.Record{Key: int64(i+1) * 10, Attrs: [][]byte{[]byte(fmt.Sprintf("payload-%d", i))}}
	}
	msg, err := sys.DA.Load(recs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Deliver(msg); err != nil {
		t.Fatal(err)
	}
	eng := query.NewEngine(opts...)
	if err := eng.AddRelation(core.DefaultRelation, sys.QS); err != nil {
		t.Fatal(err)
	}
	return &scanFixture{sys: sys, eng: eng}
}

// served is one bare scan's answer: where it came from and what it
// decodes to. Its bytes stay held until release.
type served struct {
	source  string // "built", "hit" or "coalesced", from the cache's counters
	body    []byte
	ans     *core.Answer
	release func()
}

// serve answers [lo, hi]. Its source is read off the cache's counters,
// so only a test that serves one request at a time may read it.
func (fx *scanFixture) serve(t *testing.T, lo, hi int64) served {
	t.Helper()
	before := fx.eng.Stats().Cache
	sv, err := fx.eng.Serve((&query.Spec{Rel: core.DefaultRelation, Lo: lo, Hi: hi}).Marshal(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	after := fx.eng.Stats().Cache
	out := served{source: "built", body: sv.Body, release: sv.Release}
	switch {
	case after.Hits > before.Hits:
		out.source = "hit"
	case after.Coalesced > before.Coalesced:
		out.source = "coalesced"
	}
	c, err := wire.DecodeComposite(append(bytes.Clone(sv.Body), sv.Tails...))
	if err != nil {
		t.Fatal(err)
	}
	out.ans = &core.Answer{Chain: c.Outer, Summaries: c.Tails[0].Summaries}
	return out
}

func (fx *scanFixture) source(t *testing.T, lo, hi int64) string {
	t.Helper()
	sv := fx.serve(t, lo, hi)
	sv.release()
	return sv.source
}

func TestServeSources(t *testing.T) {
	fx := newScanFixture(t, xortest.New(), 256)

	// Without a cache every request is encoded for itself.
	bare := query.NewEngine(query.WithCacheBytes(0))
	if err := bare.AddRelation("r", fx.sys.QS); err != nil {
		t.Fatal(err)
	}
	sv, err := bare.Serve((&query.Spec{Rel: "r", Lo: 10, Hi: 500}).Marshal(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	uncached := bytes.Clone(sv.Body)
	sv.Release()
	if st := bare.Stats().Cache; st != (anscache.Stats{}) {
		t.Fatalf("uncached serve counted cache traffic: %+v", st)
	}

	// A first sighting is built and served but not kept; the second
	// request earns the range its place in the cache.
	if got := fx.source(t, 10, 500); got != "built" {
		t.Fatalf("first sighting: %v", got)
	}
	sv1 := fx.serve(t, 10, 500)
	if sv1.source != "built" || len(sv1.ans.Chain.Records) != 50 {
		t.Fatalf("first serve: %v, %d records", sv1.source, len(sv1.ans.Chain.Records))
	}
	sv2 := fx.serve(t, 10, 500)
	if sv2.source != "hit" || !bytes.Equal(sv2.body, sv1.body) {
		t.Fatalf("second serve: %v", sv2.source)
	}
	// Distinct requested ranges never share an entry, even when they
	// select the same records (the verifier checks the literal range).
	sv3 := fx.serve(t, 9, 501)
	if sv3.source != "built" {
		t.Fatalf("normalized-away range shared an entry: %v", sv3.source)
	}
	sv1.release()
	sv2.release()
	sv3.release()

	// Every served answer must verify, and the cache serves the bytes an
	// uncached engine encodes.
	for _, r := range []struct{ lo, hi int64 }{{10, 500}, {9, 501}} {
		got := fx.serve(t, r.lo, r.hi)
		if _, err := fx.sys.Verifier.VerifyScan(got.ans.Chain, r.lo, r.hi, 10_000); err != nil {
			t.Fatalf("served answer [%d,%d] failed verification: %v", r.lo, r.hi, err)
		}
		if r.lo == 10 && !bytes.Equal(got.body, uncached) {
			t.Fatal("the cached answer's bytes differ from the uncached one's")
		}
		got.release()
	}

	// Built: [10,500] twice, [9,501] twice (its first sighting was sv3);
	// hits: sv2 and the sweep's [10,500].
	if st := fx.eng.Stats().Cache; st.Built != 4 || st.Hits != 2 {
		t.Fatalf("cache stats: %+v", st)
	}
}

// TestServeInvalidationOnUpdate: an Apply that intersects a cached
// range must invalidate it — and only it.
func TestServeInvalidationOnUpdate(t *testing.T) {
	fx := newScanFixture(t, xortest.New(), 512) // 8 shards over keys 10..5120
	warm := func(lo, hi int64) {
		for i := 0; i < 2; i++ { // the second request earns residency
			fx.source(t, lo, hi)
		}
	}
	warm(10, 200)    // low keys
	warm(4000, 5000) // high keys, disjoint shards
	if got := fx.source(t, 10, 200); got != "hit" {
		t.Fatalf("low range: %v", got)
	}

	// Update a low key: the low range must rebuild, the high range must
	// keep serving from cache (no global flush).
	msg, err := fx.sys.DA.Update(50, [][]byte{[]byte("new")}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.sys.QS.Apply(msg); err != nil {
		t.Fatal(err)
	}
	if got := fx.source(t, 4000, 5000); got != "hit" {
		t.Fatalf("disjoint range was flushed: %v", got)
	}
	sv := fx.serve(t, 10, 200)
	defer sv.release()
	if sv.source != "built" {
		t.Fatalf("intersecting range survived the update: %v", sv.source)
	}
	var seen bool
	for _, r := range sv.ans.Chain.Records {
		if r.Key == 50 && r.TS == 500 {
			seen = true
		}
	}
	if !seen {
		t.Fatal("rebuilt answer does not carry the update")
	}
	if _, err := fx.sys.Verifier.VerifyScan(sv.ans.Chain, 10, 200, 10_000); err != nil {
		t.Fatalf("post-update answer failed verification: %v", err)
	}
}

// countingScheme is xortest counting its AggregateInto calls: every
// aggregation of a scheme without a native Folder goes through it.
type countingScheme struct {
	*xortest.Scheme
	ops atomic.Uint64
}

func (c *countingScheme) AggregateInto(dst sigagg.Signature, sigs []sigagg.Signature) (sigagg.Signature, error) {
	c.ops.Add(1)
	return c.Scheme.AggregateInto(dst, sigs)
}

// TestServeCoalescing: K goroutines issue an identical cold range and
// exactly one tree aggregation runs, asserted by counting the scheme's
// aggregation calls.
func TestServeCoalescing(t *testing.T) {
	scheme := &countingScheme{Scheme: xortest.New()}
	fx := newScanFixture(t, scheme, 512)

	// Reference: one walk of the exact range to learn its aggregation
	// cost (a cache miss runs the same QueryStamped).
	scheme.ops.Store(0)
	if _, _, err := fx.sys.QS.QueryStamped(10, 1500); err != nil {
		t.Fatal(err)
	}
	oneWalk := scheme.ops.Load()
	if oneWalk == 0 {
		t.Fatal("reference walk performed no aggregation")
	}

	// One request beforehand, so the burst's build is the range's second
	// sighting and resident whether or not anyone joined its flight.
	fx.source(t, 10, 1500)
	plan := (&query.Spec{Rel: core.DefaultRelation, Lo: 10, Hi: 1500}).Marshal()
	const K = 16
	scheme.ops.Store(0)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			sv, err := fx.eng.Serve(plan, nil, 0)
			if err != nil {
				t.Error(err)
				return
			}
			defer sv.Release()
			c, err := wire.DecodeComposite(append(bytes.Clone(sv.Body), sv.Tails...))
			if err != nil {
				t.Error(err)
				return
			}
			if len(c.Outer.Records) != 150 {
				t.Errorf("got %d records", len(c.Outer.Records))
			}
		}()
	}
	start.Done()
	wg.Wait()
	if got := scheme.ops.Load(); got != oneWalk {
		t.Fatalf("%d identical cold requests cost %d aggregation ops, want exactly one walk (%d)",
			K, got, oneWalk)
	}
	st := fx.eng.Stats().Cache
	if st.Built != 2 { // the first sighting and the one coalesced walk
		t.Fatalf("expected exactly 2 builds: %+v", st)
	}
	if st.Hits+st.Coalesced != K-1 {
		t.Fatalf("K-1 callers should have shared the one walk: %+v", st)
	}
}

// TestServeBufferRecycling: a build encodes into a pooled buffer, which
// goes back to the pool only when its last reader releases it. Under a
// budget far below the ranges served, a reader holding a built answer
// keeps its bytes intact while hundreds of builds draw buffers from the
// pool and evict and invalidate entries, and the resident bytes stay
// within the budget. (That a released buffer goes back exactly once is
// anscache's TestReleaseRecyclesWire and
// TestBuiltBufferFreedOnceAfterFlight.)
func TestServeBufferRecycling(t *testing.T) {
	const budget = 32 << 10
	fx := newScanFixture(t, xortest.New(), 512, query.WithCacheBytes(budget))
	fx.source(t, 10, 1000)
	held := fx.serve(t, 10, 1000) // the build that earns residency: its pooled buffer, held
	want := bytes.Clone(held.body)
	for lo := int64(10); lo < 5000; lo += 10 {
		for i := 0; i < 2; i++ { // each range earns residency
			fx.source(t, lo, lo+400)
		}
	}
	msg, err := fx.sys.DA.Update(500, [][]byte{[]byte("new")}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.sys.QS.Apply(msg); err != nil {
		t.Fatal(err)
	}
	for lo := int64(15); lo < 1000; lo += 10 { // builds that draw more buffers
		fx.source(t, lo, lo+400)
	}
	if !bytes.Equal(held.body, want) {
		t.Fatal("a held answer's bytes changed before its release")
	}
	held.release()
	st := fx.eng.Stats().Cache
	if st.Evictions == 0 || st.Bytes > budget {
		t.Fatalf("%d evictions, %d bytes resident under a budget of %d", st.Evictions, st.Bytes, budget)
	}
}

// TestColdRangesPinNothing: ranges asked for once are served but never
// resident, so a scan of distinct cold ranges leaves the cache's bytes
// where they were, while a range asked for again is still a hit.
func TestColdRangesPinNothing(t *testing.T) {
	fx := newScanFixture(t, xortest.New(), 512, query.WithCacheBytes(64<<10))
	for lo := int64(0); lo < 5000; lo++ {
		if got := fx.source(t, lo, lo+50); got != "built" {
			t.Fatalf("cold range [%d,%d]: %v", lo, lo+50, got)
		}
	}
	if st := fx.eng.Stats().Cache; st.Entries != 0 || st.Evictions != 0 {
		t.Fatalf("5,000 once-seen ranges left %d entries (%d bytes) resident and %d evictions, want none",
			st.Entries, st.Bytes, st.Evictions)
	}
	for i, want := range []string{"built", "built", "hit"} {
		if got := fx.source(t, 100, 300); got != want {
			t.Fatalf("request %d of a repeated range: %v, want %v", i+1, got, want)
		}
	}
}
