package client_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"authdb/internal/bloom"
	"authdb/internal/chain"
	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/join"
	"authdb/internal/query"
	"authdb/internal/server"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/xortest"
	"authdb/internal/wire"
)

// planFixture is the two-relation catalog from the query package's
// tests, served over a real loopback NetServer with plans enabled:
// outer "o" (projection mode, keys 10..1000 step 10, two attribute
// slots) and inner "i" (multiples of 30), Bloom filter certified at one
// bit per key so negative probes and false-positive fallbacks both
// occur.
type planFixture struct {
	cat          *core.Catalog
	outer, inner *core.Relation
	eng          *query.Engine
	addr         string
	newScheme    func() sigagg.Scheme
}

// relationKeys is what a client of the fixture's catalog verifies under.
func (fx *planFixture) relationKeys() map[string]sigagg.PublicKey {
	return map[string]sigagg.PublicKey{"o": fx.outer.Pub, "i": fx.inner.Pub}
}

func newPlanFixture(t *testing.T) *planFixture {
	t.Helper()
	return newPlanFixtureOn(t, func() sigagg.Scheme { return xortest.New() }, server.NetConfig{})
}

// newPlanFixtureOn builds the fixture on the scheme newScheme makes —
// server and each dialed client get an instance of their own — behind a
// NetServer with the given configuration.
func newPlanFixtureOn(t testing.TB, newScheme func() sigagg.Scheme, netCfg server.NetConfig) *planFixture {
	t.Helper()
	return buildPlanFixture(t, newScheme, netCfg, 0, 1_000, false)
}

// newDensePlanFixture is the fixture with an inner relation that also
// holds records joining nothing — a key ending in 5 after every multiple
// of 70 and of 90 — and a filter at eight bits per key. Every stranger
// ends a run, and with few false positives the outer keys between a
// stretch's edge and its first or last match are answered by Bloom
// negatives: a BF plan over [105,695] carries a dozen runs and several
// partitions answering several keys each, a BV plan a run per stretch —
// [280,280], between 275 and 285, an anchored empty one.
func newDensePlanFixture(t testing.TB, newScheme func() sigagg.Scheme) *planFixture {
	t.Helper()
	return buildPlanFixture(t, newScheme, server.NetConfig{}, 0, 1_000, true)
}

// buildPlanFixture is newPlanFixtureOn with the owners' keys derived from
// keySeed (0 = fresh random keys) and the inner relation's first period
// closed at innerClose: two fixtures of one seed are the same owners, and
// with different innerClose the inner relation's certified history
// differs while the outer's is byte for byte the same. dense: see
// newDensePlanFixture.
func buildPlanFixture(t testing.TB, newScheme func() sigagg.Scheme, netCfg server.NetConfig, keySeed, innerClose int64, dense bool) *planFixture {
	t.Helper()
	cat, err := core.NewCatalog(newScheme(), core.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	keyRand := func(rel int64) io.Reader {
		if keySeed == 0 {
			return nil
		}
		return rand.New(rand.NewSource(keySeed + rel))
	}
	outer, err := cat.AddRelation("o", keyRand(1), []core.DAOption{core.WithAttrSigning()}, []core.Option{core.WithShards(4)})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := cat.AddRelation("i", keyRand(2), nil, []core.Option{core.WithShards(4)})
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
		if dense && (k%70 == 0 || k%90 == 0) {
			irecs = append(irecs, &core.Record{Key: k + 5, Attrs: [][]byte{[]byte(fmt.Sprintf("stranger-%d", k+5))}})
		}
	}
	bitsPerKey := 1.0
	if dense {
		bitsPerKey = 8
	}
	for _, p := range []struct {
		rel     *core.Relation
		recs    []*core.Record
		closeTS int64
	}{{outer, orecs, 1_000}, {inner, irecs, innerClose}} {
		msg, err := p.rel.DA.Load(p.recs, 100)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.rel.Deliver(msg); err != nil {
			t.Fatal(err)
		}
		if msg, err = p.rel.DA.ClosePeriod(p.closeTS); err != nil {
			t.Fatal(err)
		}
		if err := p.rel.Deliver(msg); err != nil {
			t.Fatal(err)
		}
	}
	eng := query.NewEngine()
	if err := eng.AddRelation("o", outer.QS); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddRelation("i", inner.QS); err != nil {
		t.Fatal(err)
	}
	fc, err := inner.DA.CertifyFilter(8, bitsPerKey, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := inner.QS.Apply(&core.UpdateMsg{Filter: fc}); err != nil {
		t.Fatal(err)
	}
	fx := &planFixture{cat: cat, outer: outer, inner: inner, eng: eng, newScheme: newScheme}
	_, fx.addr = fx.listen(t, netCfg)
	return fx
}

// listen serves the fixture's catalog from one more loopback NetServer —
// another replica of the same state — until the test ends.
func (fx *planFixture) listen(t testing.TB, netCfg server.NetConfig) (*server.NetServer, string) {
	t.Helper()
	srv := server.NewNetServer(fx.outer.QS, netCfg)
	srv.EnablePlans(fx.eng)
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ln.Addr().String()
}

func (fx *planFixture) dial(t testing.TB, addr string) *client.Client {
	t.Helper()
	return fx.dialWith(t, addr, fx.newScheme(), 0)
}

// dialWith opens a session verifying on the given scheme instance — so
// a test can read that instance's counters — with the given number of
// verification workers (0 = GOMAXPROCS).
func (fx *planFixture) dialWith(t testing.TB, addr string, scheme sigagg.Scheme, workers int) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr, client.Config{
		Scheme:        scheme,
		Pub:           fx.outer.Pub,
		Relations:     fx.relationKeys(),
		VerifyWorkers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func (fx *planFixture) spec(method join.Method, attrs []int) *query.Spec {
	return &query.Spec{Rel: "o", Lo: 105, Hi: 695, Attrs: attrs, Join: &query.JoinSpec{Rel: "i", Method: method}}
}

// TestQueryPlanEndToEnd: one wire request expressing σ/π/⋈ over two
// relations, fully verified client-side — the tentpole path.
func TestQueryPlanEndToEnd(t *testing.T) {
	fx := newPlanFixture(t)
	cl := fx.dial(t, fx.addr)
	comp, err := cl.QueryPlan(fx.spec(join.BF, []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(comp.Outer.Records); got != 59 {
		t.Fatalf("%d outer records, want 59", got)
	}
	if got := len(comp.Join.Runs); got != 1 {
		t.Fatalf("%d runs, want 1: every inner key is an outer key", got)
	}
	if comp.Proj == nil || len(comp.Proj.Rows) != 59 {
		t.Fatalf("projection missing or wrong size: %+v", comp.Proj)
	}
	st := cl.Stats()
	if st.Verified != 1 {
		t.Fatalf("Verified = %d, want 1", st.Verified)
	}
	if st.JoinMatches != 20 {
		t.Fatalf("JoinMatches = %d, want 20", st.JoinMatches)
	}
	if st.JoinBFFalls == 0 {
		t.Fatalf("BF counters not exercised: negs=%d falls=%d", st.JoinBFNegs, st.JoinBFFalls)
	}
	if st.JoinBFNegs+st.JoinBFFalls != 39 {
		t.Fatalf("negatives+fallbacks = %d, want 39 non-matches", st.JoinBFNegs+st.JoinBFFalls)
	}
	if st.AttrSigsVerif != 59 {
		t.Fatalf("AttrSigsVerif = %d, want 59 (59 rows × 1 attr)", st.AttrSigsVerif)
	}
	// The answer's tails seeded both relations' summary streams: later
	// queries advertise them and still verify. The second request earns
	// the plan its place in the server's cache, the third is served from it.
	for i := 0; i < 2; i++ {
		if _, err := cl.QueryPlan(fx.spec(join.BF, []int{0})); err != nil {
			t.Fatal(err)
		}
	}
	if est := fx.eng.Stats(); est.Cache.Hits == 0 {
		t.Fatalf("third identical plan missed the server cache: %+v", est.Cache)
	}
}

// TestQueryPlanBVAndSelectOnly: the boundary (BV) join method, and a
// plain select-project plan with no join section.
func TestQueryPlanBVAndSelectOnly(t *testing.T) {
	fx := newPlanFixture(t)
	cl := fx.dial(t, fx.addr)
	comp, err := cl.QueryPlan(fx.spec(join.BV, []int{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if j := comp.Join; len(j.Runs) != 1 || len(j.Negatives) != 0 || j.FilterTS != 0 {
		t.Fatalf("BV join section: %d runs, %d partitions, FilterTS %d; want one run and nothing of a filter", len(j.Runs), len(j.Negatives), j.FilterTS)
	}
	st := cl.Stats()
	if st.JoinBounds != 39 || st.JoinBFNegs != 0 {
		t.Fatalf("BV join counters: bounds=%d bfnegs=%d, want 39/0", st.JoinBounds, st.JoinBFNegs)
	}
	if st.AttrSigsVerif != 118 {
		t.Fatalf("AttrSigsVerif = %d, want 118 (59 rows × 2 attrs)", st.AttrSigsVerif)
	}
	// Select-project without a join.
	comp, err = cl.QueryPlan(&query.Spec{Rel: "o", Lo: 105, Hi: 305, Attrs: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Join != nil {
		t.Fatal("unrequested join section present")
	}
	if got := len(comp.Outer.Records); got != 20 {
		t.Fatalf("%d records, want 20", got)
	}
	// Pure select: no projection either, rows come from the chain proof.
	comp, err = cl.QueryPlan(&query.Spec{Rel: "o", Lo: 105, Hi: 305})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Proj != nil {
		t.Fatal("unrequested projection section present")
	}
}

// TestQueryPlanSeesInnerUpdate: an insert into the inner relation plus
// filter re-certification turns a non-match into a match; the client
// session absorbs the new summary through the answer's tail and the
// fresh answer verifies — the cached pre-update join must not survive.
func TestQueryPlanSeesInnerUpdate(t *testing.T) {
	fx := newPlanFixture(t)
	cl := fx.dial(t, fx.addr)
	before, err := cl.QueryPlan(fx.spec(join.BF, []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	// Key 200 is outer-only before the update.
	if matchedKeys(t, before)[200] {
		t.Fatal("fixture: 200 matched before the insert")
	}
	msg, err := fx.inner.DA.Insert(&core.Record{Key: 200, Attrs: [][]byte{[]byte("late")}}, 1_500)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.inner.Deliver(msg); err != nil {
		t.Fatal(err)
	}
	if msg, err = fx.inner.DA.ClosePeriod(2_000); err != nil {
		t.Fatal(err)
	}
	if err := fx.inner.Deliver(msg); err != nil {
		t.Fatal(err)
	}
	fc, err := fx.inner.DA.CertifyFilter(8, 1, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.inner.QS.Apply(&core.UpdateMsg{Filter: fc}); err != nil {
		t.Fatal(err)
	}
	after, err := cl.QueryPlan(fx.spec(join.BF, []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	if !matchedKeys(t, after)[200] {
		t.Fatal("post-insert match for 200 missing: stale cached join served and verified")
	}
}

// matchedKeys reads the outer keys a (verified) join section disclosed
// inner records for.
func matchedKeys(t testing.TB, comp *wire.Composite) map[int64]bool {
	t.Helper()
	out := map[int64]bool{}
	_, err := comp.Join.Resolve(join.OuterKeys(comp.Outer.Records), func(key int64, recs []*chain.Record) {
		if len(recs) > 0 {
			out[key] = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// The composite-answer forgeries, beside tamperSigFlip and tamperRowSwap
// (adversary_test.go) and the batch-aimed ones (composite_test.go).

// compTamperRowSwap swaps projected values between two records.
func compTamperRowSwap(comp *wire.Composite) bool {
	if comp.Proj == nil || len(comp.Proj.Rows) < 2 {
		return false
	}
	r := comp.Proj.Rows
	r[0].Values[0], r[1].Values[0] = r[1].Values[0], r[0].Values[0]
	return true
}

// compTamperSlotSwap swaps a record's projected values between slots.
func compTamperSlotSwap(comp *wire.Composite) bool {
	if comp.Proj == nil || len(comp.Proj.Rows) == 0 || len(comp.Proj.AttrIdxs) < 2 {
		return false
	}
	v := comp.Proj.Rows[0].Values
	v[0], v[1] = v[1], v[0]
	return true
}

// compTamperBloomBit flips a bit in a certified Bloom partition.
func compTamperBloomBit(comp *wire.Composite) bool {
	if comp.Join == nil || len(comp.Join.Negatives) == 0 {
		return false
	}
	g := &comp.Join.Negatives[0]
	raw := g.Partition.Filter.Marshal()
	raw[len(raw)-1] ^= 0x01
	f, err := bloom.Unmarshal(raw)
	if err != nil {
		return false
	}
	g.Partition.Filter = f
	return true
}

// compTamperDropBV drops the proof of one stretch of non-matching keys: a
// BV run without records.
func compTamperDropBV(comp *wire.Composite) bool {
	if comp.Join == nil {
		return false
	}
	for i, run := range comp.Join.Runs {
		if len(run.Records) == 0 {
			comp.Join.Runs = append(comp.Join.Runs[:i:i], comp.Join.Runs[i+1:]...)
			return true
		}
	}
	return false
}

// pipelinedAmong runs forge as member 3 of a pipelined batch of 5 plans
// on two relations — the forged plan between bare scans of either
// relation and honest joins — and checks what a batch owes its members:
// it fails as a verification failure that names the guilty plan and
// section, hands back no answer, and leaves the session no wiser —
// nothing verified, and not one claim of the batch (the four honest
// answers' included) admitted to a memo.
func pipelinedAmong(t *testing.T, fx *planFixture, guilty *query.Spec, forge frameForgery, section string) {
	t.Helper()
	ts := newTamperSrv(t, fx.addr)
	cl := fx.dial(t, ts.Addr())
	batch := []*query.Spec{
		{Rel: "i", Lo: 105, Hi: 695},
		fx.spec(join.BV, nil),
		guilty,
		{Rel: "o", Lo: 205, Hi: 405, Attrs: []int{1}},
		fx.spec(join.BF, []int{0}),
	}
	ts.ForgeNth(3, forge)
	comps, err := cl.QueryPlans(batch)
	if err == nil || comps != nil {
		t.Fatalf("batch with a forged member: %d answers, err %v", len(comps), err)
	}
	if !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("batch with a forged member surfaced as %v, want sigagg.ErrVerify", err)
	}
	if !strings.Contains(err.Error(), "plan 3 of 5: ") || !strings.Contains(err.Error(), section) {
		t.Fatalf("error %q does not name plan 3 of 5 and %q", err, section)
	}
	failed := cl.Stats()
	if failed.Verified != 0 {
		t.Fatalf("after the failed batch: %+v", failed)
	}
	// Nothing was admitted: the same batch, honest now, costs this session
	// exactly the claims it costs a session that never saw the forgery.
	ref := fx.dial(t, fx.addr)
	if _, err := ref.QueryPlans(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.QueryPlans(batch); err != nil {
		t.Fatalf("the honest batch through the same front: %v", err)
	}
	want, got := ref.Stats(), cl.Stats()
	if got.Verified != 5 || got.ClaimMisses-failed.ClaimMisses != want.ClaimMisses || got.ClaimHits-failed.ClaimHits != want.ClaimHits {
		t.Fatalf("the honest batch after the failed one: %d claims to the scheme and %d hits, a fresh session's %d and %d",
			got.ClaimMisses-failed.ClaimMisses, got.ClaimHits-failed.ClaimHits, want.ClaimMisses, want.ClaimHits)
	}
}

// TestAdversaryProjectedValueSwapRejected: swapping projected values
// between two records — every byte individually authentic — breaks the
// attribute-aggregate binding of (record, slot, value) and is rejected
// as a verification failure.
func TestAdversaryProjectedValueSwapRejected(t *testing.T) {
	fx := newPlanFixture(t)
	ts := newTamperSrv(t, fx.addr)
	cl := fx.dial(t, ts.Addr())
	for mode, forge := range []forgery{compTamperRowSwap, compTamperSlotSwap} {
		ts.Forge(forge)
		_, err := cl.QueryPlan(fx.spec(join.BF, []int{0, 1}))
		if err == nil {
			t.Fatalf("mode %d: swapped projection accepted", mode)
		}
		if !errors.Is(err, sigagg.ErrVerify) {
			t.Fatalf("mode %d: surfaced as %v, want sigagg.ErrVerify", mode, err)
		}
		pipelinedAmong(t, fx, fx.spec(join.BF, []int{0, 1}), onFrame(forge), `projection over "o"`)
	}
	if st := cl.Stats(); st.Verified != 0 {
		t.Fatalf("%d plans accepted against a forging replica", st.Verified)
	}
	// Sanity: the honest path through the same proxy verifies.
	ts.Forge(nil)
	if _, err := cl.QueryPlan(fx.spec(join.BF, []int{0, 1})); err != nil {
		t.Fatal(err)
	}
}

// TestAdversaryBloomBitFlipRejected: a flipped bit in a served Bloom
// partition — forcing a false negative-membership claim — no longer
// matches the owner-certified partition digest and is rejected.
func TestAdversaryBloomBitFlipRejected(t *testing.T) {
	fx := newDensePlanFixture(t, func() sigagg.Scheme { return xortest.New() })
	ts := newTamperSrv(t, fx.addr)
	ts.Forge(compTamperBloomBit)
	cl := fx.dial(t, ts.Addr())
	_, err := cl.QueryPlan(fx.spec(join.BF, nil))
	if err == nil {
		t.Fatal("tampered Bloom partition accepted")
	}
	if !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("bit flip surfaced as %v, want sigagg.ErrVerify", err)
	}
	// The flipped bit may turn the probe positive (the probe check names
	// the join) or leave a filter the certification no longer covers.
	pipelinedAmong(t, fx, fx.spec(join.BF, nil), onFrame(compTamperBloomBit), `join against "i"`)
}

// TestAdversaryDroppedBoundaryRejected: dropping the BV run over a stretch
// of non-matching keys (no record to miss, no aggregate to break) leaves
// outer keys unresolved; the coverage check rejects the answer.
func TestAdversaryDroppedBoundaryRejected(t *testing.T) {
	fx := newDensePlanFixture(t, func() sigagg.Scheme { return xortest.New() })
	ts := newTamperSrv(t, fx.addr)
	ts.Forge(compTamperDropBV)
	cl := fx.dial(t, ts.Addr())
	_, err := cl.QueryPlan(fx.spec(join.BV, nil))
	if err == nil {
		t.Fatal("join answer with a dropped non-match proof accepted")
	}
	if !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("dropped boundary surfaced as %v, want sigagg.ErrVerify", err)
	}
	pipelinedAmong(t, fx, fx.spec(join.BV, nil), onFrame(compTamperDropBV), "has no join proof")
}

// TestQueryPlanUnknownRelation: plans touching relations the session
// has no key for fail fast and fatally.
func TestQueryPlanUnknownRelation(t *testing.T) {
	fx := newPlanFixture(t)
	cl := fx.dial(t, fx.addr)
	_, err := cl.QueryPlan(&query.Spec{Rel: "nope", Lo: 1, Hi: 2})
	if !errors.Is(err, client.ErrConfig) {
		t.Fatalf("unknown relation surfaced as %v, want ErrConfig", err)
	}
	_, err = cl.QueryPlan(&query.Spec{Rel: "o", Lo: 1, Hi: 2, Join: &query.JoinSpec{Rel: "nope"}})
	if !errors.Is(err, client.ErrConfig) {
		t.Fatalf("unknown join relation surfaced as %v, want ErrConfig", err)
	}
}

// TestReconnectReanchorsEveryRelation: a reconnect re-anchors every
// relation the session holds summaries of, not only the one range
// queries address. The second server is the same owners' catalog whose
// inner relation lost its certified history and was certified again,
// differently; its outer relation's stream is byte for byte the first
// server's. A session that holds the inner stream is refused at
// Reconnect — before it could send a plan — and one that only ever
// scanned the outer relation bridges over.
func TestReconnectReanchorsEveryRelation(t *testing.T) {
	scheme := func() sigagg.Scheme { return xortest.New() }
	first := buildPlanFixture(t, scheme, server.NetConfig{}, 42, 1_000, false)
	second := buildPlanFixture(t, scheme, server.NetConfig{}, 42, 1_001, false)

	joined := first.dial(t, first.addr)
	if _, err := joined.QueryPlan(first.spec(join.BF, []int{0})); err != nil {
		t.Fatal(err)
	}
	if err := joined.Reconnect(second.addr); !errors.Is(err, client.ErrDiverged) {
		t.Fatalf("reconnect of a session holding the inner stream: %v, want ErrDiverged", err)
	}
	// The session refuses the server on the plan path too.
	if _, err := joined.QueryPlan(first.spec(join.BF, []int{0})); !errors.Is(err, client.ErrDiverged) {
		t.Fatalf("plan against the diverged server: %v, want ErrDiverged", err)
	}

	scanned := first.dial(t, first.addr)
	if _, err := scanned.QueryPlan(&query.Spec{Rel: "o", Lo: 105, Hi: 305}); err != nil {
		t.Fatal(err)
	}
	if err := scanned.Reconnect(second.addr); err != nil {
		t.Fatalf("reconnect of a session holding only the outer stream: %v", err)
	}
	if _, err := scanned.QueryPlan(&query.Spec{Rel: "o", Lo: 105, Hi: 305}); err != nil {
		t.Fatal(err)
	}
}
