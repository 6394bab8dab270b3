package query

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"authdb/internal/core"
	"authdb/internal/join"
	"authdb/internal/sigagg/xortest"
	"authdb/internal/wire"
)

// The answer-cache oracle: a seeded schedule of owner operations is applied
// to one pair of relations served by two engines, one caching and one
// not, and after every step every plan's served bytes must be identical.
// A cached composite whose stamp misses a shard its execution read shows
// up as a byte difference at the step whose update it slept through.
// Bare scans of both relations ride along in the same cache, and are held
// to QueryStamped plus its cold tail encoded on the spot as well.
// After every step a few of wire's pooled buffers are overwritten: a
// resident entry still aliasing a recycled build buffer differs at the
// next check.
const (
	oracleSeeds      = 20
	oracleShortSeeds = 4
	oracleSteps      = 500
)

// Inner keys live in [0, oracleDomain); outer keys are its multiples of
// 10. The inner relation keeps 6–14 records over 8 shards, so most shards
// hold one record or none and a probe's boundary records, its anchor's
// neighbours and a Bloom false positive's fallback routinely sit one or
// more shards away from the shard owning the probed key.
const (
	oracleDomain      = 480
	oracleInnerShards = 8
	oracleInnerLow    = 6
	oracleInnerHigh   = 14
)

type oracle struct {
	t            *testing.T
	rng          *rand.Rand
	outer, inner *core.Relation
	cached, bare *Engine
	plans        [][]byte
	names        []string
	leaves       []*Spec // a bare scan's range; nil for a plan with operators
	innerKeys    []int64 // sorted
	ts           int64

	scanHits, scanBuilt uint64 // the cached engine's outcomes for bare scans
}

func newOracle(t *testing.T, seed int64) *oracle {
	t.Helper()
	o := &oracle{t: t, rng: rand.New(rand.NewSource(seed)), ts: 100}
	cat, err := core.NewCatalog(xortest.New(), core.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if o.outer, err = cat.AddRelation("o", nil, []core.DAOption{core.WithAttrSigning()}, []core.Option{core.WithShards(4)}); err != nil {
		t.Fatal(err)
	}
	if o.inner, err = cat.AddRelation("i", nil, nil, []core.Option{core.WithShards(oracleInnerShards)}); err != nil {
		t.Fatal(err)
	}
	var orecs, irecs []*core.Record
	for k := int64(0); k < oracleDomain; k += 10 {
		orecs = append(orecs, &core.Record{Key: k, Attrs: [][]byte{[]byte(fmt.Sprintf("a-%d", k)), []byte(fmt.Sprintf("b-%d", k))}})
	}
	// Four records per shard is the least the server seeds its bounds at;
	// the schedule then thins them out.
	for k := int64(0); k < oracleDomain; k += 15 {
		irecs = append(irecs, &core.Record{Key: k, Attrs: [][]byte{[]byte("i")}})
		o.innerKeys = append(o.innerKeys, k)
	}
	for _, p := range []struct {
		rel  *core.Relation
		recs []*core.Record
	}{{o.outer, orecs}, {o.inner, irecs}} {
		msg, err := p.rel.DA.Load(p.recs, o.ts)
		o.deliver(p.rel, msg, err)
	}
	o.cached = NewEngine()
	o.bare = NewEngine(WithCacheBytes(0))
	for _, e := range []*Engine{o.cached, o.bare} {
		if err := e.AddRelation("o", o.outer.QS); err != nil {
			t.Fatal(err)
		}
		if err := e.AddRelation("i", o.inner.QS); err != nil {
			t.Fatal(err)
		}
	}
	o.ts++ // a close follows the load
	o.closePeriods()
	o.certify()

	// BF and BV, with and without π, over spans of one to a dozen outer
	// keys: some inside one inner shard, some across several.
	for i := 0; i < 14; i++ {
		lo := int64(o.rng.Intn(oracleDomain/10)) * 10
		hi := lo + int64(o.rng.Intn(12))*10
		spec := &Spec{Rel: "o", Lo: lo - 5, Hi: hi + 5, Join: &JoinSpec{Rel: "i", Method: join.BF}}
		if i%2 == 1 {
			spec.Join.Method = join.BV
		}
		switch i % 3 {
		case 1:
			spec.Attrs = []int{0}
		case 2:
			spec.Attrs = []int{1, 0}
		}
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		o.plans = append(o.plans, spec.Marshal())
		o.names = append(o.names, fmt.Sprintf("%s[%d,%d]π%v", spec.Join.Method, spec.Lo, spec.Hi, spec.Attrs))
		o.leaves = append(o.leaves, nil)
	}
	// Bare scans of either relation over a few dozen keys; the first two
	// are asked for twice a step, so they are admitted on one check's
	// first request and hit on its second.
	for i := 0; i < 6; i++ {
		rel := []string{"o", "i"}[i%2]
		lo := int64(o.rng.Intn(oracleDomain)) - 5
		spec := &Spec{Rel: rel, Lo: lo, Hi: lo + int64(o.rng.Intn(120))}
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		asks := 1
		if i < 2 {
			asks = 2
		}
		for ; asks > 0; asks-- {
			o.plans = append(o.plans, spec.Marshal())
			o.names = append(o.names, fmt.Sprintf("scan %s[%d,%d]", rel, spec.Lo, spec.Hi))
			o.leaves = append(o.leaves, spec)
		}
	}
	return o
}

func (o *oracle) deliver(rel *core.Relation, msg *core.UpdateMsg, err error) {
	o.t.Helper()
	if err != nil {
		o.t.Fatal(err)
	}
	if err := rel.Deliver(msg); err != nil {
		o.t.Fatal(err)
	}
}

func (o *oracle) closePeriods() {
	for _, rel := range []*core.Relation{o.outer, o.inner} {
		msg, err := rel.DA.ClosePeriod(o.ts)
		o.deliver(rel, msg, err)
	}
}

func (o *oracle) certify() {
	fc, err := o.inner.DA.CertifyFilter(4, 2, o.ts)
	if err != nil {
		o.t.Fatal(err)
	}
	if err := o.inner.QS.Apply(&core.UpdateMsg{Filter: fc}); err != nil {
		o.t.Fatal(err)
	}
}

// step applies one random owner operation and names it.
func (o *oracle) step() string {
	o.ts++
	n := len(o.innerKeys)
	op := o.rng.Intn(100)
	switch {
	case n <= oracleInnerLow && op < 60:
		op = 0 // too thin: insert
	case n >= oracleInnerHigh && op < 60:
		op = 30 // too thick: delete
	}
	switch {
	case op < 30: // inner insert, half the time on an outer key
		k := int64(o.rng.Intn(oracleDomain))
		if o.rng.Intn(2) == 0 {
			k -= k % 10
		}
		i, present := slices.BinarySearch(o.innerKeys, k)
		if present {
			return o.updateInner(i)
		}
		msg, err := o.inner.DA.Insert(&core.Record{Key: k, Attrs: [][]byte{[]byte("i")}}, o.ts)
		o.deliver(o.inner, msg, err)
		o.innerKeys = slices.Insert(o.innerKeys, i, k)
		return fmt.Sprintf("inner insert %d", k)
	case op < 60: // inner delete
		i := o.rng.Intn(n)
		k := o.innerKeys[i]
		msg, err := o.inner.DA.Delete(k, o.ts)
		o.deliver(o.inner, msg, err)
		o.innerKeys = slices.Delete(o.innerKeys, i, i+1)
		return fmt.Sprintf("inner delete %d", k)
	case op < 72:
		return o.updateInner(o.rng.Intn(n))
	case op < 84: // outer update
		k := int64(o.rng.Intn(oracleDomain/10)) * 10
		msg, err := o.outer.DA.Update(k, [][]byte{[]byte(fmt.Sprintf("a-%d", o.ts)), []byte("b")}, o.ts)
		o.deliver(o.outer, msg, err)
		return fmt.Sprintf("outer update %d", k)
	case op < 92:
		o.closePeriods()
		return "period close"
	default:
		o.certify()
		return "filter re-certification"
	}
}

func (o *oracle) updateInner(i int) string {
	k := o.innerKeys[i]
	msg, err := o.inner.DA.Update(k, [][]byte{[]byte(fmt.Sprintf("i-%d", o.ts))}, o.ts)
	o.deliver(o.inner, msg, err)
	return fmt.Sprintf("inner update %d", k)
}

// check serves every plan from both engines and compares the bytes; a
// bare scan is also held to its reference.
func (o *oracle) check(step int, did string) {
	o.t.Helper()
	for p, plan := range o.plans {
		before := o.cached.Stats().Cache
		got, gotTails, release, err := servePlan(o.cached, plan, nil)
		if o.leaves[p] != nil {
			after := o.cached.Stats().Cache
			o.scanHits += after.Hits - before.Hits
			o.scanBuilt += after.Built - before.Built
		}
		if err != nil {
			o.t.Fatalf("step %d (%s): cached engine, plan %s: %v", step, did, o.names[p], err)
		}
		want, wantTails, releaseBare, err := servePlan(o.bare, plan, nil)
		if err != nil {
			o.t.Fatalf("step %d (%s): uncached engine, plan %s: %v", step, did, o.names[p], err)
		}
		same := bytes.Equal(got, want) && bytes.Equal(gotTails, wantTails)
		if leaf := o.leaves[p]; leaf != nil {
			refBody, refTails := o.reference(leaf)
			same = same && bytes.Equal(got, refBody) && bytes.Equal(gotTails, refTails)
		}
		release()
		releaseBare()
		if !same {
			o.t.Fatalf("step %d (%s): plan %s served from the cache differs from its execution", step, did, o.names[p])
		}
	}
}

// reference answers a bare scan without any cache: QueryStamped, its leaf
// composite, and the tail reaching back to the answer's oldest signature.
func (o *oracle) reference(leaf *Spec) (body, tails []byte) {
	o.t.Helper()
	rv, err := o.bare.rel(leaf.Rel)
	if err != nil {
		o.t.Fatal(err)
	}
	ans, _, err := rv.qs.QueryStamped(leaf.Lo, leaf.Hi)
	if err != nil {
		o.t.Fatal(err)
	}
	if body, err = wire.AppendCompositeCore(nil, &wire.Composite{Outer: ans.Chain}); err != nil {
		o.t.Fatal(err)
	}
	return body, relTails(wire.GetBuffer(), []relOldest{{rv, ans.OldestSigTS}}, nil)
}

// scribblePool takes n buffers from wire's pool at once, overwrites every
// byte of each and puts them back.
func scribblePool(n int) {
	if n == 0 {
		return
	}
	buf := wire.GetBuffer()
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = 0xa5
	}
	scribblePool(n - 1) // still holding buf, so the next one is another buffer
	wire.PutBuffer(buf)
}

func TestPlanCacheOracle(t *testing.T) {
	seeds := oracleSeeds
	if testing.Short() || raceEnabled {
		seeds = oracleShortSeeds
	}
	var hits, built, scanHits, scanBuilt uint64
	for seed := int64(1); seed <= int64(seeds); seed++ {
		// A failing seed is named by its subtest: replay it alone with
		// -run 'TestPlanCacheOracle/seed=N'.
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			o := newOracle(t, seed)
			o.check(0, "load")
			for step := 1; step <= oracleSteps; step++ {
				did := o.step()
				scribblePool(4)
				o.check(step, did)
			}
			st := o.cached.Stats().Cache
			hits += st.Hits - o.scanHits
			built += st.Built - o.scanBuilt
			scanHits += o.scanHits
			scanBuilt += o.scanBuilt
		})
	}
	// The oracle is only as good as its mix: if nearly every step
	// invalidated every plan (or none did), stamps would go untested.
	t.Logf("%d seeds × %d steps: plans %d hits, %d builds; bare scans %d hits, %d builds",
		seeds, oracleSteps, hits, built, scanHits, scanBuilt)
	if !t.Failed() && (hits < built/4 || built < hits/50 || scanHits < scanBuilt/4 || scanBuilt < scanHits/50) {
		t.Fatalf("degenerate schedule: plans %d hits against %d builds, bare scans %d against %d", hits, built, scanHits, scanBuilt)
	}
}
