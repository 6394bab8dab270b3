package query

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"authdb/internal/anscache"
	"authdb/internal/chain"
	"authdb/internal/core"
	"authdb/internal/freshness"
	"authdb/internal/join"
	"authdb/internal/projection"
	"authdb/internal/sigagg/xortest"
	"authdb/internal/wire"
)

// fixture is a two-relation catalog: outer "o" in projection mode with
// keys 10,20,…,1000 and two attribute slots, inner "i" holding the
// multiples of 30 — so roughly a third of the outer keys join.
type fixture struct {
	cat          *core.Catalog
	outer, inner *core.Relation
	eng          *Engine
}

func newFixture(t *testing.T, engOpts ...EngineOption) *fixture {
	t.Helper()
	cat, err := core.NewCatalog(xortest.New(), core.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	outer, err := cat.AddRelation("o", nil, []core.DAOption{core.WithAttrSigning()}, []core.Option{core.WithShards(4)})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := cat.AddRelation("i", nil, nil, []core.Option{core.WithShards(4)})
	if err != nil {
		t.Fatal(err)
	}
	var orecs, irecs []*core.Record
	for k := int64(10); k <= 1000; k += 10 {
		orecs = append(orecs, &core.Record{
			Key:   k,
			Attrs: [][]byte{[]byte(fmt.Sprintf("name-%d", k)), []byte(fmt.Sprintf("payload-%d", k))},
		})
		if k%30 == 0 {
			irecs = append(irecs, &core.Record{Key: k, Attrs: [][]byte{[]byte(fmt.Sprintf("inner-%d", k))}})
		}
	}
	for _, p := range []struct {
		rel  *core.Relation
		recs []*core.Record
	}{{outer, orecs}, {inner, irecs}} {
		msg, err := p.rel.DA.Load(p.recs, 100)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.rel.Deliver(msg); err != nil {
			t.Fatal(err)
		}
		if msg, err = p.rel.DA.ClosePeriod(1_000); err != nil {
			t.Fatal(err)
		}
		if err := p.rel.Deliver(msg); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngine(engOpts...)
	if err := eng.AddRelation("o", outer.QS); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddRelation("i", inner.QS); err != nil {
		t.Fatal(err)
	}
	// One bit per key makes Bloom false positives near-certain for some
	// probed non-members, so the boundary fallback path is exercised.
	fc, err := inner.DA.CertifyFilter(8, 1, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := inner.QS.Apply(&core.UpdateMsg{Filter: fc}); err != nil {
		t.Fatal(err)
	}
	return &fixture{cat: cat, outer: outer, inner: inner, eng: eng}
}

func (fx *fixture) spec(method join.Method) *Spec {
	return &Spec{Rel: "o", Lo: 105, Hi: 695, Attrs: []int{0}, Join: &JoinSpec{Rel: "i", Method: method}}
}

// verifyComposite checks every section of a composite answer the way a
// client would, against every summary the servers hold.
func (fx *fixture) verifyComposite(t *testing.T, comp *wire.Composite, lo, hi int64, now int64) {
	t.Helper()
	if err := fx.checkComposite(comp, lo, hi, now, fx.outer.QS.SummariesTail(0, 0), fx.inner.QS.SummariesTail(0, 0)); err != nil {
		t.Fatal(err)
	}
}

// checkComposite is the client's verification of one composite: outer
// chain + freshness, projection aggregate, join proofs with per-key
// coverage, and the freshness of every inner record a join proof
// discloses — each relation judged against the summaries given for it.
// It builds its own verifiers, so concurrent callers do not share state.
func (fx *fixture) checkComposite(comp *wire.Composite, lo, hi, now int64, osums, isums []freshness.Summary) error {
	if comp.Outer.Lo != lo || comp.Outer.Hi != hi {
		return fmt.Errorf("outer chain: answer is for [%d,%d], not [%d,%d]", comp.Outer.Lo, comp.Outer.Hi, lo, hi)
	}
	if err := verifyScans(fx.outer, osums, now, comp.Outer); err != nil {
		return fmt.Errorf("outer chain: %w", err)
	}
	if comp.Proj != nil {
		if err := projection.Verify(fx.outer.Scheme, fx.outer.Pub, comp.Proj); err != nil {
			return fmt.Errorf("projection: %w", err)
		}
		if len(comp.Proj.Rows) != len(comp.Outer.Records) {
			return fmt.Errorf("%d projected rows for %d records", len(comp.Proj.Rows), len(comp.Outer.Records))
		}
	}
	if comp.Join == nil {
		return nil
	}
	// The join section: every outer key resolved exactly once, nothing
	// extra disclosed, every run and every listed partition authentic.
	if _, err := join.Verify(fx.inner.Scheme, fx.inner.Pub, join.OuterKeys(comp.Outer.Records), comp.Join); err != nil {
		return fmt.Errorf("join: %w", err)
	}
	if len(comp.Join.Runs) > 0 {
		if err := verifyScans(fx.inner, isums, now, comp.Join.Runs...); err != nil {
			return fmt.Errorf("join against %q: %w", fx.inner.Name, err)
		}
	}
	return nil
}

// verifyScans checks chains under rel's key with a verifier of their own
// that has ingested sums: VerifyScan over the range each claims.
func verifyScans(rel *core.Relation, sums []freshness.Summary, now int64, chains ...*chain.Answer) error {
	v := core.NewVerifier(rel.Scheme, rel.Pub, core.DefaultConfig())
	for _, s := range sums {
		if err := v.IngestSummary(s); err != nil {
			return err
		}
	}
	for _, ca := range chains {
		if _, err := v.VerifyScan(ca, ca.Lo, ca.Hi, now); err != nil {
			return err
		}
	}
	return nil
}

// joined reads a join section's result: the inner records matching each
// outer key that has any, and the outer keys proven absent — by a run or
// by a Bloom negative.
func joined(t *testing.T, comp *wire.Composite) (matched map[int64][]*chain.Record, absent map[int64]bool) {
	t.Helper()
	matched, absent = map[int64][]*chain.Record{}, map[int64]bool{}
	_, err := comp.Join.Resolve(join.OuterKeys(comp.Outer.Records), func(key int64, recs []*chain.Record) {
		if len(recs) > 0 {
			matched[key] = recs
		} else {
			absent[key] = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return matched, absent
}

func TestSelectProjectJoinBF(t *testing.T) {
	fx := newFixture(t)
	res, err := fx.eng.Execute(fx.spec(join.BF))
	if err != nil {
		t.Fatal(err)
	}
	fx.verifyComposite(t, res.Comp, 105, 695, 1_000)
	if got := len(res.Comp.Outer.Records); got != 59 { // 110..690 step 10
		t.Fatalf("%d outer records, want 59", got)
	}
	matched, absent := joined(t, res.Comp)
	if len(matched) != 20 || len(absent) != 39 { // 120..690 step 30
		t.Fatalf("%d matches and %d absent keys, want 20 and 39", len(matched), len(absent))
	}
	st := fx.eng.Stats()
	if st.BFProbes != 59 || st.BFFallbacks == 0 {
		t.Fatalf("BF counters probes=%d fallbacks=%d; want 59/>0", st.BFProbes, st.BFFallbacks)
	}
	// Every inner key is an outer key, so everything between the first and
	// the last key the filter admits is one scan; only negatives outside
	// it are answered from the certificate.
	negs := 0
	for _, g := range res.Comp.Join.Negatives {
		negs += len(g.Keys)
	}
	if st.JoinProbes != 1 || len(res.Comp.Join.Runs) != 1 || uint64(negs) != st.BFNegatives {
		t.Fatalf("%d scans for %d runs, %d negatives listed for %d counted; want 1 scan, 1 run",
			st.JoinProbes, len(res.Comp.Join.Runs), negs, st.BFNegatives)
	}
	if st.ProjRows != 59 {
		t.Fatalf("%d projected rows counted", st.ProjRows)
	}
	// Projection selected slot 0 of each record.
	for i, rec := range res.Comp.Outer.Records {
		want := fmt.Sprintf("name-%d", rec.Key)
		if !bytes.Equal(res.Comp.Proj.Rows[i].Values[0], []byte(want)) {
			t.Fatalf("row %d: %q, want %q", i, res.Comp.Proj.Rows[i].Values[0], want)
		}
	}
}

func TestSelectJoinBVSerialMatchesParallel(t *testing.T) {
	fx := newFixture(t)
	spec := fx.spec(join.BV)
	spec.Attrs = nil
	res, err := fx.eng.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	fx.verifyComposite(t, res.Comp, 105, 695, 1_000)
	// A BV join ships no negatives, and against an inner relation whose
	// keys are all outer keys its 59 keys are one run.
	if j := res.Comp.Join; len(j.Negatives) != 0 || j.FilterTS != 0 || len(j.Runs) != 1 || j.Runs[0].Lo != 110 || j.Runs[0].Hi != 690 {
		t.Fatalf("BV join section: %d runs, %d partitions, FilterTS %d; want the one run [110,690]", len(j.Runs), len(j.Negatives), j.FilterTS)
	}
	if st := fx.eng.Stats(); st.JoinProbes != 1 {
		t.Fatalf("%d scans, want 1", st.JoinProbes)
	}
}

// Where the inner relation is dense against the outer one — here the
// relations swapped: three inner keys for every outer key — a record that
// joins nothing sits in every gap, every run is a single key, and the
// keys-only walk gives up part of the way.
func TestDenseInnerDegeneratesToPointRuns(t *testing.T) {
	fx := newFixture(t)
	spec := &Spec{Rel: "i", Lo: 100, Hi: 700, Join: &JoinSpec{Rel: "o", Method: join.BV}}
	res, err := fx.eng.Execute(spec.mustPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.swapped().checkComposite(res.Comp, 100, 700, 1_000, fx.inner.QS.SummariesTail(0, 0), fx.outer.QS.SummariesTail(0, 0)); err != nil {
		t.Fatal(err)
	}
	keys := join.OuterKeys(res.Comp.Outer.Records)
	if len(res.Comp.Join.Runs) != len(keys) {
		t.Fatalf("%d runs for %d outer keys", len(res.Comp.Join.Runs), len(keys))
	}
	for i, run := range res.Comp.Join.Runs {
		if run.Lo != keys[i] || run.Hi != keys[i] || len(run.Records) != 1 {
			t.Fatalf("run %d is [%d,%d] with %d records, want the point %d", i, run.Lo, run.Hi, len(run.Records), keys[i])
		}
	}
}

// swapped is the fixture seen from a join of "i" against "o".
func (fx *fixture) swapped() *fixture {
	return &fixture{cat: fx.cat, outer: fx.inner, inner: fx.outer, eng: fx.eng}
}

// planShapes is one valid plan of every shape the encoding has, and each
// of Validate's limits reached exactly.
func planShapes() []*Spec {
	slots := make([]int, maxAttrs)
	for i := range slots {
		slots[i] = i
	}
	long := strings.Repeat("n", maxRelName)
	shapes := []*Spec{
		{Rel: "r", Lo: 1, Hi: 2},
		{Rel: "o", Lo: 7, Hi: 7},
		{Rel: "o", Lo: -5, Hi: 5, Attrs: []int{1, 0}},
		{Rel: "o", Lo: -5, Hi: 5, Attrs: []int{}},
		{Rel: "o", Lo: 1, Hi: 9, Join: &JoinSpec{Rel: "i", Method: join.BV}},
		{Rel: "o", Lo: 1, Hi: 9, Join: &JoinSpec{Rel: "i", Method: join.BF}},
		{Rel: "o", Lo: 1, Hi: 9, Attrs: []int{0}, Join: &JoinSpec{Rel: "o", Method: join.BV}},
		{Rel: long, Lo: 0, Hi: 0},
		{Rel: "o", Lo: -1 << 63, Hi: 1<<63 - 1, Attrs: slots, Join: &JoinSpec{Rel: long, Method: join.BF}},
	}
	if math.MaxInt >= maxSlot {
		top := uint32(maxSlot)
		shapes = append(shapes, &Spec{Rel: "o", Lo: 1, Hi: 9, Attrs: []int{int(top), 0}})
	}
	return shapes
}

func TestPlanCodec(t *testing.T) {
	for _, spec := range planShapes() {
		data := spec.mustPlan(t).Marshal()
		got, err := UnmarshalPlan(data)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if !reflect.DeepEqual(got, spec) {
			t.Fatalf("plan round trip mismatch:\n got %+v\nwant %+v", got, spec)
		}
		if !bytes.Equal(got.Marshal(), data) {
			t.Fatal("re-encoding is not canonical")
		}
	}
	scan := (&Spec{Rel: "o", Lo: 1, Hi: 2}).mustPlan(t).Marshal()
	flags := len(scan) - 1
	for name, bad := range map[string][]byte{
		"empty":               nil,
		"empty relation name": (&Spec{Lo: 1, Hi: 2}).Marshal(),
		"truncated":           scan[:flags],
		"trailing bytes":      append(bytes.Clone(scan), 7),
		"unknown flag":        append(bytes.Clone(scan[:flags]), 4),
		"projection missing":  append(bytes.Clone(scan[:flags]), flagProject),
		"join missing":        append(bytes.Clone(scan[:flags]), flagJoin),
	} {
		if _, err := UnmarshalPlan(bad); err == nil {
			t.Fatalf("%s: plan %x accepted", name, bad)
		}
	}
}

// TestPlanAndDecoderAgree: Plan and UnmarshalPlan share one rule book, so
// a spec Validate refuses is one a server refuses too, and a spec Validate accepts
// reaches the server as itself — never as another plan the encoding
// folded it into.
func TestPlanAndDecoderAgree(t *testing.T) {
	top := uint32(maxSlot)
	long := strings.Repeat("n", maxRelName+1)
	type row struct {
		name string
		spec *Spec
		ok   bool
	}
	var rows []row
	for i, s := range planShapes() {
		rows = append(rows, row{fmt.Sprintf("shape %d", i), s, true})
	}
	rows = append(rows, []row{
		{"empty relation", &Spec{Lo: 1, Hi: 2}, false},
		{"long relation", &Spec{Rel: long, Lo: 1, Hi: 2}, false},
		{"inverted range", &Spec{Rel: "o", Lo: 2, Hi: 1}, false},
		{"too many slots", &Spec{Rel: "o", Lo: 1, Hi: 2, Attrs: make([]int, maxAttrs+1)}, false},
		{"negative slot", &Spec{Rel: "o", Lo: 1, Hi: 2, Attrs: []int{-1}}, false},
		{"slot past 2^32", &Spec{Rel: "o", Lo: 1, Hi: 2, Attrs: []int{int(top) + 2}}, int(top)+2 == 1},
		{"empty inner relation", &Spec{Rel: "o", Lo: 1, Hi: 2, Join: &JoinSpec{Method: join.BV}}, false},
		{"long inner relation", &Spec{Rel: "o", Lo: 1, Hi: 2, Join: &JoinSpec{Rel: long, Method: join.BV}}, false},
		{"unknown join method", &Spec{Rel: "o", Lo: 1, Hi: 2, Join: &JoinSpec{Rel: "i", Method: join.BF + 1}}, false},
	}...)
	for _, r := range rows {
		perr := r.spec.Validate()
		got, derr := UnmarshalPlan(r.spec.Marshal())
		carried := derr == nil && reflect.DeepEqual(got, r.spec)
		if (perr == nil) != r.ok || carried != r.ok {
			t.Errorf("%s: Validate: %v; decoded %+v, %v; want accepted = %v", r.name, perr, got, derr, r.ok)
		}
	}
	if err := (*Spec)(nil).Validate(); err == nil {
		t.Error("nil spec validated")
	}
}

func (s *Spec) mustPlan(t *testing.T) *Spec {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// decodeServed reassembles what a client receives: the cached core and
// the per-client tails arrive as one frame payload.
func decodeServed(t *testing.T, body, tails []byte) *wire.Composite {
	t.Helper()
	payload := append(append([]byte(nil), body...), tails...)
	comp, err := wire.DecodeComposite(payload)
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

// A cached join answer must be invalidated by an update to the INNER
// relation even when the affected key was answered by a Bloom negative
// that never touched the inner server.
func TestCacheInvalidationOnInnerUpdate(t *testing.T) {
	fx := newFixture(t)
	spec := fx.spec(join.BF)
	plan := spec.mustPlan(t).Marshal()

	unmatchedKeys := func(comp *wire.Composite) map[int64]bool {
		_, absent := joined(t, comp)
		return absent
	}

	fx.serve(t, plan) // a first sighting: served, not kept
	body, tails, release, err := fx.eng.ServePlan(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := decodeServed(t, body, tails)
	release()
	if !unmatchedKeys(first)[200] {
		t.Fatal("key 200 should start unmatched")
	}
	if len(first.Tails) != 2 || first.Tails[0].Rel != "i" || first.Tails[1].Rel != "o" {
		t.Fatalf("tails %+v", first.Tails)
	}
	if len(first.Tails[0].Summaries) == 0 || len(first.Tails[1].Summaries) == 0 {
		t.Fatal("cold client got empty summary tails")
	}

	// Same plan again: a pure cache hit, and a caught-up client's tail
	// shrinks to the echoed stream tip (rollback evidence).
	tip := first.Tails[0].Summaries[len(first.Tails[0].Summaries)-1]
	body, tails, release, err = fx.eng.ServePlan(plan, []wire.RelSince{{Name: "i", SinceSeq: tip.Seq}})
	if err != nil {
		t.Fatal(err)
	}
	again := decodeServed(t, body, tails)
	release()
	if got := again.Tails[0].Summaries; len(got) != 1 || got[0].Seq != tip.Seq {
		t.Fatalf("caught-up client's inner tail = %d summaries, want the echoed tip", len(got))
	}
	st := fx.eng.Stats()
	if st.Cache.Hits != 1 || st.Cache.Built != 2 {
		t.Fatalf("cache hits=%d built=%d, want 1/2", st.Cache.Hits, st.Cache.Built)
	}

	// Insert key 200 into the inner relation and re-certify the filter:
	// the cached answer (which proved 200 absent) must be rebuilt and now
	// match it.
	msg, err := fx.inner.DA.Insert(&core.Record{Key: 200, Attrs: [][]byte{[]byte("late")}}, 1_500)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.inner.Deliver(msg); err != nil {
		t.Fatal(err)
	}
	fc, err := fx.inner.DA.CertifyFilter(8, 1, 1_500)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.inner.QS.Apply(&core.UpdateMsg{Filter: fc}); err != nil {
		t.Fatal(err)
	}
	body, tails, release, err = fx.eng.ServePlan(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := decodeServed(t, body, tails)
	release()
	if unmatchedKeys(after)[200] {
		t.Fatal("stale non-match for key 200 served after inner insert")
	}
	if matched, _ := joined(t, after); matched[200] == nil {
		t.Fatal("key 200 not matched after inner insert")
	}
	if st = fx.eng.Stats(); st.Cache.Built != 3 {
		t.Fatalf("cache built=%d after inner update, want 3", st.Cache.Built)
	}
	fx.verifyComposite(t, &wire.Composite{Outer: after.Outer, Proj: after.Proj, Join: after.Join}, 105, 695, 1_500)
}

// serve runs one plan through the caching path and decodes what a cold
// client would receive.
func (fx *fixture) serve(t *testing.T, plan []byte) *wire.Composite {
	t.Helper()
	body, tails, release, err := fx.eng.ServePlan(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	return decodeServed(t, body, tails)
}

func (fx *fixture) insertInner(t *testing.T, key, ts int64) {
	t.Helper()
	msg, err := fx.inner.DA.Insert(&core.Record{Key: key, Attrs: [][]byte{[]byte("late")}}, ts)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.inner.Deliver(msg); err != nil {
		t.Fatal(err)
	}
}

// The fixture's inner relation (multiples of 30 up to 990, four shards)
// splits at 270, 510 and 750. The tests below pin which inner updates a
// cached join survives and which it does not.

// A plan is stale only where it read: an inner insert into a shard no
// probe looked into leaves the cached composite serving.
func TestCacheSurvivesInsertInUnreadShard(t *testing.T) {
	for _, method := range []join.Method{join.BF, join.BV} {
		fx := newFixture(t)
		// Outer keys 110..240 probe inner shard 0; the match proof of 240
		// reaches its right neighbour 270 in shard 1. Shards 2 and 3 are
		// never read.
		spec := &Spec{Rel: "o", Lo: 105, Hi: 245, Attrs: []int{0}, Join: &JoinSpec{Rel: "i", Method: method}}
		plan := spec.mustPlan(t).Marshal()
		fx.serve(t, plan)
		if st := fx.eng.Stats(); st.StampShards != 2 {
			t.Fatalf("%v: plan stamped %d inner shards, want 2 (of 4)", method, st.StampShards)
		}
		fx.serve(t, plan) // the second request earns residency
		st := fx.eng.Stats()
		fx.insertInner(t, 905, 1_500) // neighbours 900 and 930: all shard 3
		fx.insertInner(t, 605, 1_501) // neighbours 600 and 630: all shard 2
		fx.serve(t, plan)
		after := fx.eng.Stats()
		if after.Cache.Built != st.Cache.Built || after.Cache.Hits != st.Cache.Hits+1 || after.Cache.Invalidations != 0 {
			t.Fatalf("%v: inserts into unread shards: built %d→%d hits %d→%d invalidations %d; want a pure hit",
				method, st.Cache.Built, after.Cache.Built, st.Cache.Hits, after.Cache.Hits, after.Cache.Invalidations)
		}
	}
}

// Inserting a key that a cached plan proved absent with a Bloom negative
// — a proof that read no inner data at all — retires the plan even
// though the filter has not been re-certified.
func TestCacheInvalidationOnBloomNegativeKey(t *testing.T) {
	fx := newFixture(t)
	fc := fx.inner.QS.Filter(nil)
	var neg int64 = -1
	for k := int64(10); k <= 1000 && neg < 0; k += 10 {
		if idx := fc.PF.Find(k); k%30 != 0 && !fc.PF.Partitions[idx].Filter.MayContainUint64(uint64(k)) {
			neg = k
		}
	}
	if neg < 0 {
		t.Fatal("fixture filter has no negative outer key")
	}
	// A one-key plan: its whole inner stamp is the filter epoch plus the
	// shard that owns the absent key.
	spec := &Spec{Rel: "o", Lo: neg - 5, Hi: neg + 5, Join: &JoinSpec{Rel: "i", Method: join.BF}}
	plan := spec.mustPlan(t).Marshal()
	first := fx.serve(t, plan)
	if len(first.Join.Runs) != 0 || len(first.Join.Negatives) != 1 || len(first.Join.Negatives[0].Keys) != 1 {
		t.Fatalf("key %d was not resolved by a Bloom negative: %+v", neg, first.Join)
	}
	if st := fx.eng.Stats(); st.JoinProbes != 0 || st.StampShards != 1 {
		t.Fatalf("a Bloom negative probed the server (%d probes) or stamped %d shards, want 0 and 1", st.JoinProbes, st.StampShards)
	}
	fx.serve(t, plan) // the second request earns residency
	fx.serve(t, plan)
	fx.insertInner(t, neg, 1_500)
	fx.serve(t, plan)
	if st := fx.eng.Stats(); st.Cache.Hits != 1 || st.Cache.Built != 3 {
		t.Fatalf("hits=%d built=%d after inserting the absent key, want 1/3", st.Cache.Hits, st.Cache.Built)
	}
}

// An insert between two probed keys changes a neighbour reference inside
// a cached proof, so the plan rebuilds and the new proof chains through
// the new record.
func TestCacheInvalidationOnInsertBetweenProbes(t *testing.T) {
	fx := newFixture(t)
	spec := &Spec{Rel: "o", Lo: 105, Hi: 245, Join: &JoinSpec{Rel: "i", Method: join.BV}}
	plan := spec.mustPlan(t).Marshal()
	fx.serve(t, plan)
	fx.serve(t, plan) // the second request earns residency

	fx.insertInner(t, 125, 1_500) // between the probes of 120 and 130
	after := fx.serve(t, plan)
	if st := fx.eng.Stats(); st.Cache.Built != 3 {
		t.Fatalf("built=%d after an insert between probed keys, want 3", st.Cache.Built)
	}
	// 125 joins nothing, so it ends the run holding 120 and is its right
	// boundary.
	if runs := after.Join.Runs; len(runs) != 2 || runs[0].Hi != 120 || runs[0].Right.Key != 125 || runs[1].Lo != 130 || runs[1].Left.Key != 125 {
		t.Fatalf("runs after inserting 125: %+v", runs)
	}
	fx.verifyComposite(t, &wire.Composite{Outer: after.Outer, Join: after.Join}, 105, 245, 1_500)
}

// An insert can land between the keys-only walk that chose a scan's
// extent and the scan: here the extent is handed in as the walk would have
// chosen it before 125 and 305 were inserted. The scan is held to the
// outer keys and split at each record that joins nothing, so what is
// shipped is what a client accepts — under BF with the pieces cut back to
// the keys the filter admits, the rest answered by negatives.
func TestScanSplitsAtRecordThatJoinsNothing(t *testing.T) {
	for _, method := range []join.Method{join.BV, join.BF} {
		fx := newFixture(t)
		fx.insertInner(t, 125, 1_500)
		fx.insertInner(t, 305, 1_501)
		inner, err := fx.eng.rel("i")
		if err != nil {
			t.Fatal(err)
		}
		js := joinScan{rv: inner, ja: &join.Answer{Method: method}, read: new(anscache.Stamp)}
		for k := int64(110); k <= 400; k += 10 {
			js.keys = append(js.keys, k)
		}
		first, last := 0, len(js.keys)-1
		if method == join.BF {
			js.fc = fx.inner.QS.Filter(nil)
			if js.live, js.part, err = js.fc.Probe(js.keys); err != nil {
				t.Fatal(err)
			}
			first, last, _ = liveSpan(js.live, first, last)
		}
		if err := fx.eng.scanRuns(&js, [][2]int{{first, last}}); err != nil {
			t.Fatal(err)
		}
		if _, err := join.Verify(fx.inner.Scheme, fx.inner.Pub, js.keys, js.ja); err != nil {
			t.Fatalf("%v: the shipped section does not verify: %v", method, err)
		}
		if n := len(js.ja.Runs); n != 3 {
			t.Fatalf("%v: %d runs, want 3: split at 125 and at 305", method, n)
		}
		if st := fx.eng.Stats(); st.JoinProbes != 5 {
			t.Fatalf("%v: %d scans, want 5: the whole extent, its right piece, and the three shipped", method, st.JoinProbes)
		}
	}
}

// Topology changes invalidate everything: while the inner relation is
// one shard, any insert touches the shard every plan read, and the
// Restore that splits it into shard bounds replaces every shard. Only
// then does an insert retire just the plans whose shards it touched.
func TestCacheInvalidationOnSeedAndRestore(t *testing.T) {
	cat, err := core.NewCatalog(xortest.New(), core.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	outer, err := cat.AddRelation("o", nil, nil, []core.Option{core.WithShards(4)})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := cat.AddRelation("i", nil, nil, []core.Option{core.WithShards(4)})
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{cat: cat, outer: outer, inner: inner, eng: NewEngine()}
	var orecs, irecs []*core.Record
	for k := int64(10); k <= 400; k += 10 {
		orecs = append(orecs, &core.Record{Key: k, Attrs: [][]byte{[]byte("o")}})
	}
	// 15 inner records: one short of the population an image splits into
	// four shards at, so everything lives in shard 0.
	for k := int64(20); k <= 300; k += 20 {
		irecs = append(irecs, &core.Record{Key: k, Attrs: [][]byte{[]byte("i")}})
	}
	for _, p := range []struct {
		rel  *core.Relation
		recs []*core.Record
	}{{outer, orecs}, {inner, irecs}} {
		msg, err := p.rel.DA.Load(p.recs, 100)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.rel.Deliver(msg); err != nil {
			t.Fatal(err)
		}
		if err := fx.eng.AddRelation(p.rel.Name, p.rel.QS); err != nil {
			t.Fatal(err)
		}
	}
	var plans [][]byte
	for lo := int64(5); lo < 300; lo += 100 {
		spec := &Spec{Rel: "o", Lo: lo, Hi: lo + 50, Join: &JoinSpec{Rel: "i", Method: join.BV}}
		plans = append(plans, spec.mustPlan(t).Marshal())
	}
	serveAll := func() Stats {
		for _, plan := range plans {
			fx.serve(t, plan)
		}
		return fx.eng.Stats()
	}
	serveAll() // first sightings: served, not kept
	serveAll()
	if st := serveAll(); st.Cache.Hits != 3 || st.Cache.Built != 6 {
		t.Fatalf("warm-up: hits=%d built=%d, want 3/6", st.Cache.Hits, st.Cache.Built)
	}
	// The sixteenth record lands far right of every plan's span, in the
	// one shard all three read: it retires all three.
	fx.insertInner(t, 390, 200)
	if st := serveAll(); st.Cache.Hits != 3 || st.Cache.Built != 9 {
		t.Fatalf("after an insert into the unsplit relation: hits=%d built=%d, want 3/9", st.Cache.Hits, st.Cache.Built)
	}
	if st := serveAll(); st.Cache.Hits != 6 {
		t.Fatalf("unsplit relation does not cache: hits=%d, want 6", st.Cache.Hits)
	}
	// Restored, the sixteen records reach the threshold and the image is
	// split (at 100, 180, 260): every shard is new, every plan retired.
	if err := inner.QS.Restore(inner.QS.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if st := serveAll(); st.Cache.Hits != 6 || st.Cache.Built != 12 {
		t.Fatalf("after Restore: hits=%d built=%d, want 6/12", st.Cache.Hits, st.Cache.Built)
	}
	if st := serveAll(); st.Cache.Hits != 9 {
		t.Fatalf("split relation does not cache: hits=%d, want 9", st.Cache.Hits)
	}
	// The bounds are live now: another insert on the far right retires
	// only the plan whose last probe (250, absent) anchored on 260 in the
	// last shard.
	fx.insertInner(t, 395, 201)
	if st := serveAll(); st.Cache.Hits != 11 || st.Cache.Built != 13 {
		t.Fatalf("after an insert into the last shard: hits=%d built=%d, want 11/13", st.Cache.Hits, st.Cache.Built)
	}
}

// A resident plan pins exactly the bytes the cache charges for it: the
// builder encodes into a pooled buffer whose capacity is whatever the pool
// last held, and the cache keeps an exactly sized copy of what it admits,
// charged by the answer's length.
func TestPlanCacheEntriesExactlySized(t *testing.T) {
	// Leave an oversized buffer in the pool for the builder to draw.
	wire.PutBuffer(make([]byte, 0, 512<<10))
	fx := newFixture(t)
	var lens, keys int64
	var perEntry int64 = -1
	for n, lo := 0, int64(105); lo < 900; n, lo = n+1, lo+100 {
		spec := &Spec{Rel: "o", Lo: lo, Hi: lo + 90, Attrs: []int{0}, Join: &JoinSpec{Rel: "i", Method: join.BV}}
		plan := spec.mustPlan(t).Marshal()
		var built []byte
		for i := 0; i < 3; i++ { // a first sighting, the request that admits it, a hit
			body, _, release, err := fx.eng.ServePlan(plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			switch i {
			case 1:
				built = bytes.Clone(body)
			case 2:
				if cap(body) != len(body) || !bytes.Equal(body, built) {
					t.Fatalf("plan %d: resident entry holds %d bytes in a buffer of %d (equal to the build: %v)",
						n, len(body), cap(body), bytes.Equal(body, built))
				}
				lens += int64(len(body))
				keys += int64(len(plan))
			}
			release()
		}
		st := fx.eng.Stats().Cache
		if st.Entries != int64(n+1) || st.Hits != uint64(n+1) {
			t.Fatalf("plan %d not admitted and hit: %+v", n, st)
		}
		if perEntry < 0 {
			perEntry = st.Bytes - lens - keys // the cache's fixed bookkeeping charge
		}
		if want := lens + keys + st.Entries*perEntry; st.Bytes != want {
			t.Fatalf("after %d plans the cache accounts %d bytes, its entries pin %d", n+1, st.Bytes, want)
		}
	}
}

// A filter re-certification ALONE (no data change) also invalidates
// cached BF answers — they embed partition proofs under the old cert.
func TestCacheInvalidationOnFilterSwap(t *testing.T) {
	fx := newFixture(t)
	plan := fx.spec(join.BF).mustPlan(t).Marshal()
	for i := 0; i < 3; i++ { // a first sighting, the second request that admits it, a hit
		_, _, release, err := fx.eng.ServePlan(plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	if st := fx.eng.Stats(); st.Cache.Hits != 1 {
		t.Fatalf("expected a warm hit, got %+v", st.Cache)
	}
	fc, err := fx.inner.DA.CertifyFilter(8, 1, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.inner.QS.Apply(&core.UpdateMsg{Filter: fc}); err != nil {
		t.Fatal(err)
	}
	body, tails, release, err := fx.eng.ServePlan(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	comp := decodeServed(t, body, tails)
	release()
	// The filter time is stated with the negatives it dates, and only then.
	if want := map[bool]int64{true: 2_000}[len(comp.Join.Negatives) > 0]; comp.Join.FilterTS != want {
		t.Fatalf("FilterTS %d after swap with %d partitions listed, want %d", comp.Join.FilterTS, len(comp.Join.Negatives), want)
	}
	if st := fx.eng.Stats(); st.Cache.Built != 3 {
		t.Fatalf("cache built=%d after filter swap, want 3", st.Cache.Built)
	}
}

// Race target: concurrent plan serving against live updates to both
// relations, period closes and filter swaps, with verifying clients
// reading throughout. Run under -race in CI.
//
// Beyond the data races, the clients hold the cache to its contract: a
// composite they accept is never older than an update that had completed
// before they asked. The writer publishes each update once its delivery
// returned; a client snapshots that before a request and afterwards
// requires every outer record to be at least that version and every
// inner key inserted by then to be resolved by something other than a
// run proving its absence. A composite whose scan raced the writer
// can fail freshness against the newer summaries in its (uncached)
// tails — the client rejects it and asks again, as a real one does; once
// the writer is done nothing may be stale.
func TestConcurrentPlansAndUpdates(t *testing.T) {
	fx := newFixture(t)
	specs := []*Spec{
		fx.spec(join.BF),
		fx.spec(join.BV),
		{Rel: "o", Lo: 755, Hi: 995, Attrs: []int{0, 1}},
		{Rel: "i", Lo: 0, Hi: 900},
		{Rel: "o", Lo: 105, Hi: 245, Join: &JoinSpec{Rel: "i", Method: join.BV}},
	}
	plans := make([][]byte, len(specs))
	for i, spec := range specs {
		plans[i] = spec.mustPlan(t).Marshal()
	}

	// committed[k/10] is the timestamp of the newest outer update of key k
	// whose delivery has returned; inserted[k/10] says the same of an
	// inner insert of k.
	var committed, inserted [101]atomic.Int64
	var writerDone atomic.Bool

	// verified serves one plan and verifies it as a client, retrying
	// while the answer is (correctly) rejected as stale.
	verified := func(p int) error {
		spec := specs[p]
		for attempt := 0; ; attempt++ {
			var wantTS, wantIn [101]int64
			for i := range wantTS {
				wantTS[i], wantIn[i] = committed[i].Load(), inserted[i].Load()
			}
			settled := writerDone.Load()
			body, tails, release, err := fx.eng.ServePlan(plans[p], nil)
			if err != nil {
				return err
			}
			comp, err := wire.DecodeComposite(append(append([]byte(nil), body...), tails...))
			release()
			if err != nil {
				return err
			}
			sums := map[string][]freshness.Summary{}
			for _, tail := range comp.Tails {
				sums[tail.Rel] = tail.Summaries
			}
			if spec.Rel == "i" {
				// A plain scan of the inner relation: one chain, its own key.
				if comp.Outer.Lo != spec.Lo || comp.Outer.Hi != spec.Hi {
					return fmt.Errorf("plan %d: scan is for [%d,%d]", p, comp.Outer.Lo, comp.Outer.Hi)
				}
				err = verifyScans(fx.inner, sums["i"], 1<<40, comp.Outer)
			} else {
				err = fx.checkComposite(comp, spec.Lo, spec.Hi, 1<<40, sums["o"], sums["i"])
			}
			if errors.Is(err, freshness.ErrStale) && !settled && attempt < 50 {
				continue
			}
			if err != nil {
				return fmt.Errorf("plan %d: %w", p, err)
			}
			if spec.Rel == "i" {
				return nil
			}
			for _, rec := range comp.Outer.Records {
				if rec.TS < wantTS[rec.Key/10] {
					return fmt.Errorf("plan %d: accepted outer key %d at ts %d; an update at %d had completed before the request",
						p, rec.Key, rec.TS, wantTS[rec.Key/10])
				}
			}
			if comp.Join != nil {
				var raced error
				comp.Join.Resolve(join.OuterKeys(comp.Outer.Records), func(key int64, recs []*chain.Record) {
					inRun := false
					for _, run := range comp.Join.Runs {
						inRun = inRun || run.Lo <= key && key <= run.Hi
					}
					if len(recs) == 0 && inRun && wantIn[key/10] != 0 {
						raced = fmt.Errorf("plan %d: accepted a run proving %d absent; its insert had completed before the request", p, key)
					}
				})
				if raced != nil {
					return raced
				}
			}
			return nil
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25 || !writerDone.Load(); i++ {
				if err := verified((w + i) % len(plans)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		deliver := func(rel *core.Relation, msg *core.UpdateMsg, err error) bool {
			if err == nil {
				err = rel.Deliver(msg)
			}
			if err != nil {
				t.Error(err)
			}
			return err == nil
		}
		ts := int64(2_000)
		for i := 0; i < 30; i++ {
			ts += 10
			// Outer updates stay in the outer relation's last shard (keys
			// from 760), which only the projection plan reads: the join
			// plans' cached copies live or die by their inner stamps alone.
			key := int64(760 + 10*(i%24))
			msg, err := fx.outer.DA.Update(key, [][]byte{[]byte("x"), []byte("y")}, ts)
			if !deliver(fx.outer, msg, err) {
				return
			}
			committed[key/10].Store(ts)
			if i%3 == 0 {
				// An outer key inside every join plan's span that the inner
				// relation lacks (multiples of 30 are loaded).
				k := int64(110 + 10*i)
				msg, err = fx.inner.DA.Insert(&core.Record{Key: k, Attrs: [][]byte{[]byte("n")}}, ts)
				if !deliver(fx.inner, msg, err) {
					return
				}
				inserted[k/10].Store(1)
			}
			// Close the period on both relations, so the next summary marks
			// what was just superseded and a stale copy of it fails freshness.
			ts += 10
			for _, rel := range []*core.Relation{fx.outer, fx.inner} {
				msg, err := rel.DA.ClosePeriod(ts)
				if !deliver(rel, msg, err) {
					return
				}
			}
			if i%6 == 0 {
				fc, err := fx.inner.DA.CertifyFilter(8, 4, ts)
				if err != nil {
					t.Error(err)
					return
				}
				if err := fx.inner.QS.Apply(&core.UpdateMsg{Filter: fc}); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	wg.Wait()
	// Quiescent: every plan verifies first time, from the cache or not.
	for p := range plans {
		if err := verified(p); err != nil {
			t.Error(err)
		}
	}
}

func TestServeRelSummaries(t *testing.T) {
	fx := newFixture(t)
	sums, err := fx.eng.ServeRelSummaries("i", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) == 0 {
		t.Fatal("no summaries for a closed period")
	}
	if _, err := fx.eng.ServeRelSummaries("ghost", 0, 0); err == nil {
		t.Fatal("unknown relation accepted")
	}
}

func TestUnknownRelationAndMissingFilter(t *testing.T) {
	fx := newFixture(t)
	if _, err := fx.eng.Execute((&Spec{Rel: "ghost", Lo: 0, Hi: 1}).mustPlan(t)); err == nil {
		t.Fatal("unknown outer relation accepted")
	}
	spec := &Spec{Rel: "i", Lo: 0, Hi: 900, Join: &JoinSpec{Rel: "o", Method: join.BF}}
	if _, err := fx.eng.Execute(spec.mustPlan(t)); err == nil {
		t.Fatal("BF join without a certified filter accepted")
	}
}
