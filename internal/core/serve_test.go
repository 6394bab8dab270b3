package core

import (
	"fmt"
	"sync"
	"testing"

	"authdb/internal/anscache"
	"authdb/internal/sigagg/xortest"
)

// testCodec is a stand-in for the wire codec (core cannot import
// internal/wire — wire depends on core): a cheap deterministic encoding
// that exercises the cache's byte plumbing and the Free hook.
func testCodec(freed *int) AnswerCodec {
	return AnswerCodec{
		Encode: func(a *Answer) ([]byte, error) {
			return []byte(fmt.Sprintf("ans[%d,%d]x%d", a.Chain.Lo, a.Chain.Hi, len(a.Chain.Records))), nil
		},
		Free: func([]byte) {
			if freed != nil {
				*freed++
			}
		},
	}
}

func TestServeSources(t *testing.T) {
	sys := newSystem(t, xortest.New())
	load(t, sys, 256)

	// Without a cache: uncached, no wire bytes.
	sv, err := sys.QS.Serve(10, 500)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Source != ServedUncached || sv.Data != nil {
		t.Fatalf("uncached serve: %v data=%v", sv.Source, sv.Data)
	}
	sv.Release()

	if err := sys.QS.EnableAnswerCache(testCodec(nil)); err != nil {
		t.Fatal(err)
	}
	// A first sighting is built and served but not kept; the second
	// request earns the range its place in the cache.
	warm, err := sys.QS.Serve(10, 500)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Source != ServedBuilt {
		t.Fatalf("first sighting: %v", warm.Source)
	}
	warm.Release()
	sv1, err := sys.QS.Serve(10, 500)
	if err != nil {
		t.Fatal(err)
	}
	if sv1.Source != ServedBuilt || string(sv1.Data) != "ans[10,500]x50" {
		t.Fatalf("first serve: %v %q", sv1.Source, sv1.Data)
	}
	sv2, err := sys.QS.Serve(10, 500)
	if err != nil {
		t.Fatal(err)
	}
	if sv2.Source != ServedHit || string(sv2.Data) != string(sv1.Data) {
		t.Fatalf("second serve: %v %q", sv2.Source, sv2.Data)
	}
	if sv2.Answer != sv1.Answer {
		t.Fatal("hit did not share the materialized answer")
	}
	// Distinct requested ranges never share an entry, even when they
	// select the same records (the verifier checks the literal range).
	sv3, err := sys.QS.Serve(9, 501)
	if err != nil {
		t.Fatal(err)
	}
	if sv3.Source != ServedBuilt {
		t.Fatalf("normalized-away range shared an entry: %v", sv3.Source)
	}
	sv1.Release()
	sv2.Release()
	sv3.Release()

	// Every served answer must verify.
	for _, sv := range []struct{ lo, hi int64 }{{10, 500}, {9, 501}} {
		got, err := sys.QS.Serve(sv.lo, sv.hi)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Verifier.VerifyAnswer(got.Answer, sv.lo, sv.hi, 10_000); err != nil {
			t.Fatalf("served answer [%d,%d] failed verification: %v", sv.lo, sv.hi, err)
		}
		got.Release()
	}

	// Built: [10,500] twice, [9,501] twice (its first sighting was sv3);
	// hits: sv2 and the sweep's [10,500].
	st := sys.QS.ServingStats()
	if st.Answers.Built != 4 || st.Answers.Hits != 2 {
		t.Fatalf("serving stats: %+v", st.Answers)
	}
}

// TestServeInvalidationOnUpdate: an Apply that intersects a cached
// range must invalidate it — and only it.
func TestServeInvalidationOnUpdate(t *testing.T) {
	sys := newSystem(t, xortest.New())
	load(t, sys, 512) // seeds the key-range shards (8 shards over keys 10..5120)
	if err := sys.QS.EnableAnswerCache(testCodec(nil)); err != nil {
		t.Fatal(err)
	}

	warm := func(lo, hi int64) {
		for i := 0; i < 2; i++ { // the second request earns residency
			sv, err := sys.QS.Serve(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			sv.Release()
		}
	}
	sourceOf := func(lo, hi int64) ServeSource {
		sv, err := sys.QS.Serve(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		defer sv.Release()
		return sv.Source
	}

	warm(10, 200)    // low keys
	warm(4000, 5000) // high keys, disjoint shards
	if got := sourceOf(10, 200); got != ServedHit {
		t.Fatalf("low range: %v", got)
	}

	// Update a low key: the low range must rebuild, the high range must
	// keep serving from cache (no global flush).
	msg, err := sys.DA.Update(50, [][]byte{[]byte("new")}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.QS.Apply(msg); err != nil {
		t.Fatal(err)
	}
	if got := sourceOf(4000, 5000); got != ServedHit {
		t.Fatalf("disjoint range was flushed: %v", got)
	}
	sv, err := sys.QS.Serve(10, 200)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Source != ServedBuilt {
		t.Fatalf("intersecting range survived the update: %v", sv.Source)
	}
	var seen bool
	for _, r := range sv.Answer.Chain.Records {
		if r.Key == 50 && r.TS == 500 {
			seen = true
		}
	}
	if !seen {
		t.Fatal("rebuilt answer does not carry the update")
	}
	if _, err := sys.Verifier.VerifyAnswer(sv.Answer, 10, 200, 10_000); err != nil {
		t.Fatalf("post-update answer failed verification: %v", err)
	}
	sv.Release()
}

// TestServeCoalescing: K goroutines issue an identical cold range and
// exactly one tree aggregation runs, asserted via xortest's
// aggregation-op counters.
func TestServeCoalescing(t *testing.T) {
	scheme := xortest.New()
	sys := newSystem(t, scheme)
	load(t, sys, 512)

	// Reference: one uncached walk of the exact range to learn its
	// aggregation cost (Serve without a cache runs the same pipeline a
	// cache miss does).
	scheme.ResetAggOps()
	sv, err := sys.QS.Serve(10, 1500)
	if err != nil {
		t.Fatal(err)
	}
	sv.Release()
	oneWalk := scheme.AggOps()
	if oneWalk == 0 {
		t.Fatal("reference walk performed no aggregation")
	}

	if err := sys.QS.EnableAnswerCache(testCodec(nil)); err != nil {
		t.Fatal(err)
	}
	// One request beforehand, so the burst's build is the range's second
	// sighting and resident whether or not anyone joined its flight.
	sv, err = sys.QS.Serve(10, 1500)
	if err != nil {
		t.Fatal(err)
	}
	sv.Release()
	const K = 16
	scheme.ResetAggOps()
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			sv, err := sys.QS.Serve(10, 1500)
			if err != nil {
				t.Error(err)
				return
			}
			defer sv.Release()
			if len(sv.Answer.Chain.Records) != 150 {
				t.Errorf("got %d records", len(sv.Answer.Chain.Records))
			}
		}()
	}
	start.Done()
	wg.Wait()
	if got := scheme.AggOps(); got != oneWalk {
		t.Fatalf("%d identical cold requests cost %d aggregation ops, want exactly one walk (%d)",
			K, got, oneWalk)
	}
	st := sys.QS.ServingStats().Answers
	if st.Built != 2 { // the first sighting and the one coalesced walk (the reference ran uncached)
		t.Fatalf("expected exactly 2 builds: %+v", st)
	}
	if st.Hits+st.Coalesced != K-1 {
		t.Fatalf("K-1 callers should have shared the one walk: %+v", st)
	}
}

// TestServeBufferRecycling: evicted entries return their wire buffers
// through the codec's Free hook once the last reader releases.
func TestServeBufferRecycling(t *testing.T) {
	sys := newSystem(t, xortest.New())
	load(t, sys, 64)
	freed := 0
	// A budget that holds roughly one entry forces eviction on the
	// second distinct range.
	if err := sys.QS.EnableAnswerCache(testCodec(&freed), anscache.WithShards(1), anscache.WithMaxBytes(200)); err != nil {
		t.Fatal(err)
	}
	serve := func(lo, hi int64) {
		for i := 0; i < 2; i++ { // the second request earns residency
			sv, err := sys.QS.Serve(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			sv.Release()
		}
	}
	serve(10, 100)
	firstSightings := freed
	serve(200, 300)
	if freed != firstSightings+2 { // [200,300]'s first sighting, then [10,100] evicted
		t.Fatalf("evicted entry never returned its buffer (freed %d → %d)", firstSightings, freed)
	}
}

// TestColdRangesPinNothing: ranges asked for once are served but never
// resident, so a scan of distinct cold ranges leaves the cache's bytes
// where they were, while a range asked for again is still a hit.
func TestColdRangesPinNothing(t *testing.T) {
	sys := newSystem(t, xortest.New())
	load(t, sys, 512)
	if err := sys.QS.EnableAnswerCache(testCodec(nil), anscache.WithMaxBytes(64<<10)); err != nil {
		t.Fatal(err)
	}
	const entryBytes = 160 + 32 // bookkeeping plus a testCodec answer
	for lo := int64(0); lo < 5000; lo++ {
		sv, err := sys.QS.Serve(lo, lo+50)
		if err != nil {
			t.Fatal(err)
		}
		if sv.Source != ServedBuilt {
			t.Fatalf("cold range [%d,%d]: %v", lo, lo+50, sv.Source)
		}
		sv.Release()
	}
	if st := sys.QS.ServingStats().Answers; st.Bytes > 4*entryBytes || st.Evictions != 0 {
		t.Fatalf("5,000 once-seen ranges left %d bytes resident and %d evictions, want at most a few entries' worth and none",
			st.Bytes, st.Evictions)
	}
	for i, want := range []ServeSource{ServedBuilt, ServedBuilt, ServedHit} {
		sv, err := sys.QS.Serve(100, 300)
		if err != nil {
			t.Fatal(err)
		}
		if sv.Source != want {
			t.Fatalf("request %d of a repeated range: %v, want %v", i+1, sv.Source, want)
		}
		sv.Release()
	}
}
