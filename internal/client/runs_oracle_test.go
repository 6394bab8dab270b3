package client_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

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

// The run differential. A join section answers a stretch of outer keys
// with one inner scan; the obvious way answers each key with a point
// selection of its own. After every one of a seeded stream of owner
// operations on the inner relation (inserts, updates, deletes, period
// closes, filter re-certifications) and for both methods, a plan fetched
// and verified through the client must say about every outer key exactly
// what a loop of Query(v, v) says — the same matching records, the same
// absent keys — and must not be larger on the wire than those point
// proofs shipped one run per key. The inner relation comes in three
// densities (seed mod 3): every inner key an outer key, so a plan is one
// run; four inner keys to every outer key, so nearly every run is a point;
// and half of each. The filter is re-certified after every insert, so that a
// Bloom negative and the relation agree.
//
// The mutation check: two neighbouring BV runs replaced by the honest
// scan across the record that separates them — authentic and complete,
// disclosing a record that joins nothing — must be refused on every seed.
// A failing seed replays alone: -run 'TestRunProofsMatchPointProofs/seed=N'.
const (
	runOracleSeeds      = 12
	runOracleShortSeeds = 3
	runOracleSteps      = 60
	runOracleDomain     = 600 // outer keys are its multiples of 10
)

type runOracle struct {
	t            *testing.T
	rng          *rand.Rand
	density      int
	outer, inner *core.Relation
	eng          *query.Engine
	cl           *client.Client
	now          int64
	innerKeys    []int64 // sorted

	runs, keys, negatives int // over every plan compared
}

func newRunOracle(t *testing.T, seed int64) *runOracle {
	o := &runOracle{t: t, rng: rand.New(rand.NewSource(seed)), density: int(seed % 3), now: 100}
	cat, err := core.NewCatalog(xortest.New(), core.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if o.outer, err = cat.AddRelation("o", nil, nil, []core.Option{core.WithShards(4)}); err != nil {
		t.Fatal(err)
	}
	if o.inner, err = cat.AddRelation("i", nil, nil, []core.Option{core.WithShards(4)}); err != nil {
		t.Fatal(err)
	}
	var orecs, irecs []*core.Record
	for k := int64(0); k < runOracleDomain; k += 10 {
		orecs = append(orecs, &core.Record{Key: k, Attrs: [][]byte{[]byte(fmt.Sprintf("o-%d", k))}})
	}
	population := 24 // of the 60 outer keys
	if o.density != 0 {
		population = 240 // of the domain's 600 keys, to 60 outer keys
	}
	for len(o.innerKeys) < population {
		if k := o.genKey(); !slices.Contains(o.innerKeys, k) {
			o.innerKeys = append(o.innerKeys, k)
		}
	}
	slices.Sort(o.innerKeys)
	for _, k := range o.innerKeys {
		irecs = append(irecs, &core.Record{Key: k, Attrs: [][]byte{[]byte(fmt.Sprintf("i-%d", k))}})
	}
	msg, err := o.outer.DA.Load(orecs, o.now)
	o.deliver(o.outer, msg, err)
	msg, err = o.inner.DA.Load(irecs, o.now)
	o.deliver(o.inner, msg, err)
	o.eng = query.NewEngine()
	for _, rel := range []*core.Relation{o.outer, o.inner} {
		if err := o.eng.AddRelation(rel.Name, rel.QS); err != nil {
			t.Fatal(err)
		}
	}
	o.now++ // a close follows the load
	o.closePeriods()
	srv := server.NewNetServer(o.outer.QS, server.NetConfig{})
	srv.EnablePlans(o.eng)
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
	o.cl, err = client.Dial(ln.Addr().String(), client.Config{
		Scheme: xortest.New(), Pub: o.outer.Pub, Relations: map[string]sigagg.PublicKey{"o": o.outer.Pub, "i": o.inner.Pub}, VerifyWorkers: 1,
		Now: func() int64 { return o.now },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.cl.Close() })
	return o
}

// genKey draws an inner key for the oracle's density: an outer key, any
// key of the domain (nine in ten are no outer key), or one or the other by
// the half of the domain it falls in.
func (o *runOracle) genKey() int64 {
	k := int64(o.rng.Intn(runOracleDomain))
	if o.density == 0 || o.density == 2 && k < runOracleDomain/2 {
		k -= k % 10
	}
	return k
}

func (o *runOracle) deliver(rel *core.Relation, msg *core.UpdateMsg, err error) {
	o.t.Helper()
	if err != nil {
		o.t.Fatal(err)
	}
	if err := rel.Deliver(msg); err != nil {
		o.t.Fatal(err)
	}
}

// closePeriods closes a ρ-period on both relations and re-certifies the
// filter at the same time, as an owner does.
func (o *runOracle) closePeriods() {
	for _, rel := range []*core.Relation{o.outer, o.inner} {
		msg, err := rel.DA.ClosePeriod(o.now)
		o.deliver(rel, msg, err)
	}
	o.certify()
}

func (o *runOracle) certify() {
	fc, err := o.inner.DA.CertifyFilter(4, 4, o.now)
	if err != nil {
		o.t.Fatal(err)
	}
	if err := o.inner.QS.Apply(&core.UpdateMsg{Filter: fc}); err != nil {
		o.t.Fatal(err)
	}
}

func (o *runOracle) insert(k int64) {
	at, present := slices.BinarySearch(o.innerKeys, k)
	if present {
		return
	}
	msg, err := o.inner.DA.Insert(&core.Record{Key: k, Attrs: [][]byte{[]byte(fmt.Sprintf("i@%d", o.now))}}, o.now)
	o.deliver(o.inner, msg, err)
	o.innerKeys = slices.Insert(o.innerKeys, at, k)
	o.certify()
}

// ownerOp applies one random operation to the inner relation and names it.
func (o *runOracle) ownerOp() string {
	o.now += int64(1 + o.rng.Intn(20))
	switch op := o.rng.Intn(100); {
	case op < 40 || len(o.innerKeys) < 8:
		k := o.genKey()
		o.insert(k)
		return fmt.Sprintf("insert %d", k)
	case op < 60:
		at := o.rng.Intn(len(o.innerKeys))
		k := o.innerKeys[at]
		msg, err := o.inner.DA.Delete(k, o.now)
		o.deliver(o.inner, msg, err)
		o.innerKeys = slices.Delete(o.innerKeys, at, at+1)
		return fmt.Sprintf("delete %d", k)
	case op < 75:
		k := o.innerKeys[o.rng.Intn(len(o.innerKeys))]
		msg, err := o.inner.DA.Update(k, [][]byte{[]byte(fmt.Sprintf("i@%d", o.now))}, o.now)
		o.deliver(o.inner, msg, err)
		return fmt.Sprintf("update %d", k)
	case op < 90:
		o.closePeriods()
		return "period close"
	default:
		o.certify()
		return "filter re-certification"
	}
}

// pointProofs answers the outer keys the obvious way: one Query(v, v) per
// key the method needs a live proof for — shipped as a run of that one
// key — and the certified negative for every other. It returns that
// section with what it says about each key.
func (o *runOracle) pointProofs(method join.Method, keys []int64) (*join.Answer, map[int64][]*chain.Record) {
	fc := o.inner.QS.Filter(nil)
	live, part, err := fc.Probe(keys)
	if err != nil {
		o.t.Fatal(err)
	}
	ans, matched := &join.Answer{Method: method}, map[int64][]*chain.Record{}
	for i, v := range keys {
		if method == join.BF && !live[i] {
			ans.AddNegative(fc, part[i], v)
			matched[v] = nil
			continue
		}
		point, _, err := o.inner.QS.QueryStamped(v, v)
		if err != nil {
			o.t.Fatal(err)
		}
		ans.Runs = append(ans.Runs, point.Chain)
		matched[v] = point.Chain.Records
	}
	return ans, matched
}

func sectionBytes(t *testing.T, outer *chain.Answer, j *join.Answer) int {
	t.Helper()
	buf, err := wire.AppendCompositeCore(nil, &wire.Composite{Outer: outer, Join: j})
	if err != nil {
		t.Fatal(err)
	}
	return len(buf)
}

// check fetches and verifies one plan per method through the client and
// holds it against the point proofs.
func (o *runOracle) check(step int, did string) {
	lo := int64(o.rng.Intn(runOracleDomain))
	hi := lo + int64(o.rng.Intn(runOracleDomain/2))
	if step%5 == 0 {
		lo, hi = 0, runOracleDomain
	}
	for _, method := range []join.Method{join.BV, join.BF} {
		spec := &query.Spec{Rel: "o", Lo: lo, Hi: hi, Join: &query.JoinSpec{Rel: "i", Method: method}}
		comp, err := o.cl.QueryPlan(spec)
		if err != nil {
			o.t.Fatalf("step %d (%s): %v plan over [%d,%d]: %v", step, did, method, lo, hi, err)
		}
		keys := join.OuterKeys(comp.Outer.Records)
		want, wantMatched := o.pointProofs(method, keys)
		got := map[int64][]*chain.Record{}
		res, err := comp.Join.Resolve(keys, func(key int64, recs []*chain.Record) { got[key] = recs })
		if err != nil {
			o.t.Fatal(err)
		}
		for _, v := range keys {
			if len(got[v]) != len(wantMatched[v]) || len(got[v]) > 0 && !reflect.DeepEqual(got[v], wantMatched[v]) {
				o.t.Fatalf("step %d (%s): %v plan over [%d,%d]: key %d joins %d records by its run or negative, %d by Query(%d, %d)",
					step, did, method, lo, hi, v, len(got[v]), len(wantMatched[v]), v, v)
			}
		}
		if n, point := sectionBytes(o.t, comp.Outer, comp.Join), sectionBytes(o.t, comp.Outer, want); n > point {
			o.t.Fatalf("step %d (%s): %v plan over [%d,%d] is %d bytes in %d runs, %d as %d point proofs",
				step, did, method, lo, hi, n, len(comp.Join.Runs), point, len(want.Runs))
		}
		o.runs += len(comp.Join.Runs)
		o.keys += len(keys)
		o.negatives += res.Negatives
	}
}

// mutate extends a run across a record that joins nothing and requires the
// session to refuse it.
func (o *runOracle) mutate() {
	// Make sure such a record exists: a stranger in the middle of the domain.
	o.now++
	for k := int64(runOracleDomain/2 + 5); ; k += 10 {
		if _, present := slices.BinarySearch(o.innerKeys, k); !present {
			o.insert(k)
			break
		}
	}
	spec := &query.Spec{Rel: "o", Lo: 0, Hi: runOracleDomain, Join: &query.JoinSpec{Rel: "i", Method: join.BV}}
	comp, err := o.cl.FetchPlan(spec)
	if err != nil {
		o.t.Fatal(err)
	}
	if err := o.cl.VerifyComposite(spec, comp); err != nil {
		o.t.Fatalf("the honest plan before the mutation: %v", err)
	}
	runs := comp.Join.Runs
	if len(runs) < 2 {
		o.t.Fatalf("fixture: %d runs with a stranger in the domain", len(runs))
	}
	at := o.rng.Intn(len(runs) - 1)
	wide, _, err := o.inner.QS.QueryStamped(runs[at].Lo, runs[at+1].Hi)
	if err != nil {
		o.t.Fatal(err)
	}
	comp.Join.Runs = append(append(runs[:at:at], wide.Chain), runs[at+2:]...)
	err = o.cl.VerifyComposite(spec, comp)
	if !errors.Is(err, sigagg.ErrVerify) || !strings.Contains(fmt.Sprint(err), "is no outer key") {
		o.t.Fatalf("a run extended over [%d,%d], across a record that joins nothing: %v, want sigagg.ErrVerify naming the record",
			wide.Chain.Lo, wide.Chain.Hi, err)
	}
}

func TestRunProofsMatchPointProofs(t *testing.T) {
	seeds := runOracleSeeds
	if testing.Short() || raceEnabled {
		seeds = runOracleShortSeeds
	}
	var perDensity [3]struct{ runs, keys, negatives int }
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			o := newRunOracle(t, seed)
			o.check(0, "load")
			for step := 1; step <= runOracleSteps; step++ {
				o.check(step, o.ownerOp())
			}
			o.mutate()
			d := &perDensity[o.density]
			d.runs, d.keys, d.negatives = d.runs+o.runs, d.keys+o.keys, d.negatives+o.negatives
		})
	}
	// The comparison is only as good as its mix: the sparse density must
	// merge, the dense one must not, and negatives must survive somewhere.
	t.Logf("%d seeds × %d steps; runs / outer keys / surviving negatives — inner ⊂ outer: %+v, inner ≫ outer: %+v, mixed: %+v",
		seeds, runOracleSteps, perDensity[0], perDensity[1], perDensity[2])
	sparse, dense := perDensity[0], perDensity[1]
	if !t.Failed() && (sparse.runs*10 > sparse.keys || dense.runs*3 < dense.keys || dense.negatives == 0) {
		t.Fatal("degenerate schedule")
	}
}
