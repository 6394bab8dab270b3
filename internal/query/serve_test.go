package query

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"authdb/internal/anscache"
	"authdb/internal/join"
	"authdb/internal/wire"
)

// TestServePlanRefusesStraySince: a request's summary positions are held
// against the relations its plan names — a position for another relation,
// or two for one, is refused rather than silently resolved.
func TestServePlanRefusesStraySince(t *testing.T) {
	fx := newFixture(t)
	scan := (&Spec{Rel: "o", Lo: 105, Hi: 305}).mustPlan(t).Marshal()
	joined := fx.spec(join.BF).mustPlan(t).Marshal()
	for _, tc := range []struct {
		name  string
		plan  []byte
		since []wire.RelSince
		want  string // "" = served
	}{
		{"scan, its own relation", scan, []wire.RelSince{{Name: "o", SinceSeq: 1}}, ""},
		{"scan, the other relation", scan, []wire.RelSince{{Name: "i"}}, "does not name"},
		{"scan, an unknown relation", scan, []wire.RelSince{{Name: "nope"}}, "does not name"},
		{"scan, the same relation twice", scan, []wire.RelSince{{Name: "o", SinceSeq: 1}, {Name: "o"}}, "two summary positions"},
		{"join, both relations", joined, []wire.RelSince{{Name: "o"}, {Name: "i", SinceSeq: 1}}, ""},
		{"join, inner twice", joined, []wire.RelSince{{Name: "i"}, {Name: "i", SinceSeq: 1}}, "two summary positions"},
		{"join, a third relation", joined, []wire.RelSince{{Name: "o"}, {Name: "x"}}, "does not name"},
	} {
		_, _, release, err := fx.eng.ServePlan(tc.plan, tc.since)
		if err == nil {
			release()
		}
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one saying %q", tc.name, err, tc.want)
		}
	}
}

// TestBareScanServedByTheEngineCache: a plan that is a bare selection is
// answered from the engine's one answer cache, zero-copy, like any other
// plan, and the frame is the leaf composite an uncached engine encodes.
func TestBareScanServedByTheEngineCache(t *testing.T) {
	fx := newFixture(t)
	plan := (&Spec{Rel: "o", Lo: 105, Hi: 305}).mustPlan(t).Marshal()
	uncachedEng := NewEngine(WithCacheBytes(0))
	if err := uncachedEng.AddRelation("o", fx.outer.QS); err != nil {
		t.Fatal(err)
	}
	serve := func(eng *Engine) (*wire.Composite, []byte) {
		t.Helper()
		body, tails, release, err := eng.ServePlan(plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		return decodeServed(t, body, tails), bytes.Clone(body)
	}
	uncached, plain := serve(uncachedEng)
	if uncached.Proj != nil || uncached.Join != nil || len(uncached.Outer.Records) != 20 {
		t.Fatalf("bare scan answered with %+v", uncached)
	}
	if len(uncached.Tails) != 1 || uncached.Tails[0].Rel != "o" || len(uncached.Tails[0].Summaries) == 0 {
		t.Fatalf("bare scan's tails: %+v", uncached.Tails)
	}
	if st := uncachedEng.Stats().Cache; st != (anscache.Stats{}) {
		t.Fatalf("an uncached engine counted cache traffic: %+v", st)
	}
	// The first serve is a first sighting (served, not kept), the second
	// earns residency, the rest are hits.
	for i := 0; i < 4; i++ {
		got, body := serve(fx.eng)
		if !bytes.Equal(body, plain) || !reflect.DeepEqual(got, uncached) {
			t.Fatalf("serve %d through the cache differs from the uncached answer", i)
		}
	}
	if st := fx.eng.Stats().Cache; st.Built != 2 || st.Hits != 2 || st.Entries != 1 {
		t.Fatalf("cache built %d, hit %d, holds %d; want 2, 2 and 1", st.Built, st.Hits, st.Entries)
	}
	if !raceEnabled {
		// A cached range selection is most of a server's traffic. A hit
		// costs the request one object: the slice header wire.PutBuffer
		// boxes when the tails' buffer goes back to its pool. The cache
		// key views the request's plan bytes; only a build copies them.
		since := []wire.RelSince{{Name: "o", SinceSeq: 1 << 40}} // past the stream: an empty tail
		allocs := testing.AllocsPerRun(50, func() {
			sv, err := fx.eng.Serve(plan, since, 0)
			if err != nil {
				t.Fatal(err)
			}
			sv.Release()
		})
		if allocs > 1 {
			t.Fatalf("cached bare scan: %.0f allocations per request, want at most 1", allocs)
		}
	}
}

// TestOneCacheServesEveryRelation: on a two-relation engine built the way
// authserve builds it — one WithCacheBytes budget, no other cache — a bare
// scan of the inner relation is cached like one of the outer relation,
// and scans and plans are charged to the one byte budget.
func TestOneCacheServesEveryRelation(t *testing.T) {
	fx := newFixture(t, WithCacheBytes(64<<20))
	serve := func(spec *Spec) (bodyLen, keyLen int) {
		t.Helper()
		plan := spec.mustPlan(t).Marshal()
		body, _, release, err := fx.eng.ServePlan(plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		bodyLen = len(body)
		release()
		return bodyLen, len(plan)
	}
	inner := &Spec{Rel: "i", Lo: 100, Hi: 500}
	for i := 0; i < 3; i++ { // a first sighting, the build that earns residency, a hit
		serve(inner)
	}
	scan := fx.eng.Stats().Cache
	if scan.Hits != 1 || scan.Built != 2 || scan.Entries != 1 {
		t.Fatalf("the inner relation's bare scans: %+v, want two builds, one resident entry and one hit", scan)
	}
	body, key := serve(inner)
	overhead := scan.Bytes - int64(body+key) // the cache's bookkeeping charge per entry
	proj := &Spec{Rel: "o", Lo: 105, Hi: 305, Attrs: []int{1}}
	serve(proj)
	body, key = serve(proj)
	both := fx.eng.Stats().Cache
	if both.Entries != 2 || both.Bytes != scan.Bytes+int64(body+key)+overhead {
		t.Fatalf("a scan and a plan resident: %d entries, %d bytes; want 2 entries, the scan's %d bytes plus the plan's %d",
			both.Entries, both.Bytes, scan.Bytes, int64(body+key)+overhead)
	}
}

// FuzzUnmarshalPlan: the plan decoder is the first thing every request
// reaches. Whatever the bytes, it must not panic; what it accepts is
// canonical — the plan marshals back to exactly the input, which is what
// lets the plan cache key on received bytes — and passes Validate.
// bareScan, the serving shortcut, reads exactly the plans the decoder
// reads as a bare selection, and reads them the same.
func FuzzUnmarshalPlan(f *testing.F) {
	for _, spec := range planShapes() {
		data := spec.Marshal()
		f.Add(data)
		for i := 0; i < len(data); i += 1 + len(data)/12 {
			m := bytes.Clone(data)
			m[i] ^= 0x81
			f.Add(m)
		}
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-1])
		f.Add(append(bytes.Clone(data), 0))
		// The same bytes read under every other combination of flags.
		at := 2 + len(spec.Rel) + 16
		for flags := byte(0); flags <= flagProject|flagJoin; flags++ {
			if flags != data[at] {
				m := bytes.Clone(data)
				m[at] = flags
				f.Add(m)
			}
		}
	}
	sel := (&Spec{Rel: "o"}).Marshal()
	sel = sel[:len(sel)-1]                                      // the selection, without its flags
	f.Add(append(bytes.Clone(sel), flagProject, 0xff, 0xff))    // slot count past the limit
	f.Add(append(bytes.Clone(sel), flagJoin, 0, 0xff, 0xff, 0)) // inner name longer than the bytes present
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, lo, hi, bare := bareScan(data)
		p, err := UnmarshalPlan(data)
		if bare != (err == nil && p.Attrs == nil && p.Join == nil) || bare && (string(rel) != p.Rel || lo != p.Lo || hi != p.Hi) {
			t.Fatalf("bareScan(%x) = %q [%d,%d] %v; UnmarshalPlan: %+v, %v", data, rel, lo, hi, bare, p, err)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(p.Marshal(), data) {
			t.Fatalf("accepted %x, which marshals back to %x", data, p.Marshal())
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted %x, which Validate refuses: %v", data, err)
		}
	})
}

// TestServeConfirmsAHeldAnswer: a request naming the digest of the answer
// core the engine would send is answered "unchanged" — no core, the tails
// alone — and one naming any other digest gets the whole answer. The
// digest is of content: an entry rebuilt because an update elsewhere in
// its shard moved the epoch still confirms it, and so does an engine with
// no cache. A hit that confirms costs no more allocations than one that
// sends the answer.
func TestServeConfirmsAHeldAnswer(t *testing.T) {
	fx := newFixture(t)
	plan := (&Spec{Rel: "o", Lo: 105, Hi: 305}).mustPlan(t).Marshal()
	uncachedEng := NewEngine(WithCacheBytes(0))
	if err := uncachedEng.AddRelation("o", fx.outer.QS); err != nil {
		t.Fatal(err)
	}
	full, _, release, err := fx.eng.ServePlan(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	held := wire.CoreDigest(full)
	want := bytes.Clone(full)
	release()
	confirm := func(eng *Engine, digest uint64) *wire.Composite {
		t.Helper()
		sv, err := eng.Serve(plan, nil, digest)
		if err != nil {
			t.Fatal(err)
		}
		defer sv.Release()
		comp := decodeServed(t, sv.Body, sv.Tails)
		if comp.Unchanged != (len(sv.Body) == 0) || (!comp.Unchanged && !bytes.Equal(sv.Body, want)) {
			t.Fatalf("served a %d-byte core, unchanged = %v", len(sv.Body), comp.Unchanged)
		}
		return comp
	}
	for i := 0; i < 3; i++ { // a first sighting, the build that earns residency, a hit
		if comp := confirm(fx.eng, held); !comp.Unchanged || len(comp.Tails) != 1 || len(comp.Tails[0].Summaries) == 0 {
			t.Fatalf("request %d naming the current answer: %+v", i, comp)
		}
	}
	if comp := confirm(fx.eng, held^1); comp.Unchanged {
		t.Fatal("a request naming another answer was confirmed")
	}
	if comp := confirm(uncachedEng, held); !comp.Unchanged {
		t.Fatal("the uncached engine sent the whole answer")
	}
	// An update outside the range, in the shard it reads: the entry is
	// rebuilt, to the same bytes.
	before := fx.eng.Stats()
	msg, err := fx.outer.DA.Update(30, [][]byte{[]byte("n"), []byte("p")}, 1_100)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.outer.Deliver(msg); err != nil {
		t.Fatal(err)
	}
	if comp := confirm(fx.eng, held); !comp.Unchanged {
		t.Fatal("an entry rebuilt to the same bytes did not confirm the held answer")
	}
	after := fx.eng.Stats()
	if after.Cache.Invalidations == before.Cache.Invalidations || after.Unchanged != before.Unchanged+1 || before.Unchanged != 3 {
		t.Fatalf("the update did not rebuild the entry, or unchanged replies miscounted: %+v -> %+v", before, after)
	}
	// An update inside it: the whole answer again.
	if msg, err = fx.outer.DA.Update(200, [][]byte{[]byte("n"), []byte("p")}, 1_200); err != nil {
		t.Fatal(err)
	}
	if err := fx.outer.Deliver(msg); err != nil {
		t.Fatal(err)
	}
	sv, err := fx.eng.Serve(plan, nil, held)
	if err != nil {
		t.Fatal(err)
	}
	if len(sv.Body) == 0 {
		t.Fatal("an answer the update changed was confirmed unchanged")
	}
	held = wire.CoreDigest(sv.Body)
	sv.Release()
	if !raceEnabled {
		since := []wire.RelSince{{Name: "o", SinceSeq: 1 << 40}} // past the stream: an empty tail
		for i := 0; i < 2; i++ {
			confirm(fx.eng, held) // resident again
		}
		allocs := testing.AllocsPerRun(50, func() {
			sv, err := fx.eng.Serve(plan, since, held)
			if err != nil {
				t.Fatal(err)
			}
			sv.Release()
		})
		if allocs > 1 {
			t.Fatalf("a confirmed repeat: %.0f allocations per request, want at most 1", allocs)
		}
	}
}

// TestConfirmationsRace: many requests naming a held answer at once,
// while updates rebuild the entry, share one lazily computed digest per
// entry; run under -race.
func TestConfirmationsRace(t *testing.T) {
	fx := newFixture(t)
	plan := (&Spec{Rel: "o", Lo: 105, Hi: 305}).mustPlan(t).Marshal()
	body, _, release, err := fx.eng.ServePlan(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	held := wire.CoreDigest(body)
	release()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sv, err := fx.eng.Serve(plan, nil, held)
				if err != nil {
					t.Error(err)
					return
				}
				if len(sv.Body) != 0 {
					t.Error("a request naming the current answer got it whole")
				}
				sv.Release()
			}
		}()
	}
	for ts := int64(1_100); ts < 1_120; ts++ { // outside the range, inside its shard
		msg, err := fx.outer.DA.Update(30, [][]byte{[]byte("n"), []byte("p")}, ts)
		if err == nil {
			err = fx.outer.Deliver(msg)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
