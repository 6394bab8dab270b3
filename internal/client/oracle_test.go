package client_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"authdb/internal/chain"
	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/freshness"
	"authdb/internal/query"
	"authdb/internal/server"
	"authdb/internal/sigagg/bas"
)

// The leaf-plan differential. A range selection has three ways to its
// verdict: built and checked in process (QueryStamped, the summary stream
// ingested, VerifyScan), and twice over the socket — QueryPlan with the
// one-leaf plan, and the FetchBatch plus Verify pair the benchmark drives
// (benchpin.go), which build that plan themselves. After every one of a
// seeded stream of owner operations (updates, inserts, deletes, period
// closes) the three must agree on the chain, record for record, on the
// freshness bound, and on the verdict; and the range's previous version,
// handed to the session as a replaying server would, must get from the
// client's Verify the verdict chain.Verify + freshness give it — the
// paper's protocol written the obvious way — which, once a period has
// closed over a change, is "stale". The server answers
// from its answer cache, so cached cores and per-client tails are under
// the comparison; and every 40 steps the session is replaced by a cold
// one whose first query is the point range of the key written last, so
// that its tail starts periods into the stream and the gap is bridged
// through summary pages the server caps at 3.
// A failing seed replays alone: -run 'TestLeafPlanMatchesInProcess/seed=N'.
const (
	leafOracleSeeds      = 20
	leafOracleShortSeeds = 4
	leafOracleSteps      = 200
)

type leafOracle struct {
	t   *testing.T
	rng *rand.Rand
	sys *core.Relation
	now int64

	addr    string
	cl      *client.Client
	ref     *core.Verifier // the in-process verifier, holding the whole summary stream
	written int64          // the key of the owner's last update

	keys []int64 // the owner's keys, sorted
	hot  []span
	last map[span]*core.Answer // each hot range's previous in-process answer

	accepted, stale      int
	summaries, claimHits uint64 // of the sessions closed so far
	eng                  *query.Engine
}

func newLeafOracle(t *testing.T, seed int64) *leafOracle {
	o := &leafOracle{t: t, rng: rand.New(rand.NewSource(seed)), now: 100, last: map[span]*core.Answer{}}
	o.sys = newRelation(t, bas.New(0), core.WithShards(4))
	var recs []*core.Record
	for k := int64(10); k <= 640; k += 10 {
		recs = append(recs, &core.Record{Key: k, Attrs: [][]byte{[]byte(fmt.Sprintf("v-%d", k))}})
		o.keys = append(o.keys, k)
	}
	o.deliver(o.sys.DA.Load(recs, o.now))
	// The server's answer cache: the comparison wants some of its
	// answers hit.
	o.eng = query.NewEngine(query.WithCacheBytes(64 << 20))
	if err := o.eng.AddRelation(core.DefaultRelation, o.sys.QS); err != nil {
		t.Fatal(err)
	}
	srv := server.NewNetServer(o.sys.QS, server.NetConfig{MaxSummaries: 3})
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
	o.addr, o.written = ln.Addr().String(), o.keys[0]
	o.dial()
	t.Cleanup(func() { o.cl.Close() })
	o.ref = core.NewVerifier(o.sys.Scheme, o.sys.Pub, core.DefaultConfig())
	for i := 0; i < 6; i++ {
		lo := int64(10 + o.rng.Intn(520))
		o.hot = append(o.hot, span{Lo: lo, Hi: lo + int64(20+o.rng.Intn(90))})
	}
	return o
}

// dial replaces the session with a cold one.
func (o *leafOracle) dial() {
	if o.cl != nil {
		st := o.cl.Stats()
		o.summaries += st.Summaries
		o.claimHits += st.ClaimHits
		o.cl.Close()
	}
	var err error
	// No clock: a clocked bound counts the time since the newest summary
	// held, which a cold session and the in-process verifier (holding the
	// whole stream) do not share. The clock has cases of its own
	// (TestFrozenServerRefusedWithinRhoPlusSkew).
	o.cl, err = client.Dial(o.addr, client.Config{
		Scheme: bas.New(0), Pub: o.sys.Pub, VerifyWorkers: 1,
	})
	if err != nil {
		o.t.Fatal(err)
	}
}

func (o *leafOracle) deliver(msg *core.UpdateMsg, err error) {
	o.t.Helper()
	if err != nil {
		o.t.Fatal(err)
	}
	if err := o.sys.Deliver(msg); err != nil {
		o.t.Fatal(err)
	}
}

func (o *leafOracle) ownerOp() {
	o.now += int64(20 + o.rng.Intn(200))
	switch op := o.rng.Intn(10); {
	case op < 4:
		k := o.keys[o.rng.Intn(len(o.keys))]
		o.deliver(o.sys.DA.Update(k, [][]byte{[]byte(fmt.Sprintf("v@%d", o.now))}, o.now))
		o.written = k
	case op < 5:
		k := int64(10+o.rng.Intn(640))/10*10 + 5
		at, present := slices.BinarySearch(o.keys, k)
		if present {
			return
		}
		o.deliver(o.sys.DA.Insert(&core.Record{Key: k, Attrs: [][]byte{[]byte("ins")}}, o.now))
		o.keys = slices.Insert(o.keys, at, k)
	case op < 6:
		if len(o.keys) < 32 {
			return
		}
		at := o.rng.Intn(len(o.keys))
		o.deliver(o.sys.DA.Delete(o.keys[at], o.now))
		o.keys = slices.Delete(o.keys, at, at+1)
	default:
		o.deliver(o.sys.DA.ClosePeriod(o.now))
	}
}

// sync ingests every summary the server has published past the newest
// the in-process verifier holds.
func (o *leafOracle) sync() {
	tip, _ := o.ref.LatestSummary()
	for _, s := range o.sys.QS.SummariesTail(tip.Seq, 0) {
		if s.Seq <= tip.Seq {
			continue
		}
		if err := o.ref.IngestSummary(s); err != nil {
			o.t.Fatal(err)
		}
	}
}

// reference is the obvious verdict on one chain: the range it claims,
// chain.Verify on the scheme, and the freshness of every record against
// every summary the server has published.
func (o *leafOracle) reference(ans *core.Answer, rg span) error {
	if ans.Chain.Lo != rg.Lo || ans.Chain.Hi != rg.Hi {
		return errors.New("wrong range")
	}
	if err := chain.Verify(o.sys.Scheme, o.sys.Pub, ans.Chain); err != nil {
		return err
	}
	o.sync()
	_, err := o.ref.Staleness(ans.Chain, o.now)
	return err
}

func (o *leafOracle) step(step int) {
	o.ownerOp()
	rg := o.hot[o.rng.Intn(len(o.hot))]
	hot := o.rng.Intn(4) != 0
	if !hot {
		lo := int64(o.rng.Intn(640))
		rg = span{Lo: lo, Hi: lo + int64(o.rng.Intn(100))}
	}
	if step%40 == 0 {
		o.dial()
		hot, rg = false, span{Lo: o.written, Hi: o.written}
	}
	inproc, _, err := o.sys.QS.QueryStamped(rg.Lo, rg.Hi)
	if err != nil {
		o.t.Fatal(err)
	}
	o.sync()
	want, err := o.ref.VerifyScan(inproc.Chain, rg.Lo, rg.Hi, o.now)
	if err != nil {
		o.t.Fatalf("step %d: the current answer for [%d,%d] fails in process: %v", step, rg.Lo, rg.Hi, err)
	}
	comp, err := o.cl.QueryPlan(&query.Spec{Rel: core.DefaultRelation, Lo: rg.Lo, Hi: rg.Hi})
	if err != nil {
		o.t.Fatalf("step %d: QueryPlan of the leaf [%d,%d] on %q: %v", step, rg.Lo, rg.Hi, core.DefaultRelation, err)
	}
	if comp.Proj != nil || comp.Join != nil || !reflect.DeepEqual(comp.Outer, inproc.Chain) || comp.Staleness != want {
		o.t.Fatalf("step %d: the leaf plan's scan of [%d,%d] bounded %d is not the chain built in process, bounded %d:\n got %+v\nwant %+v",
			step, rg.Lo, rg.Hi, comp.Staleness, want, comp.Outer, inproc.Chain)
	}
	ranges := []core.Range{{Lo: rg.Lo, Hi: rg.Hi}}
	answers, err := o.cl.FetchBatch(ranges)
	if err != nil {
		o.t.Fatalf("step %d: FetchBatch(%d, %d): %v", step, rg.Lo, rg.Hi, err)
	}
	bounds, err := o.cl.Verify(answers, ranges)
	if err != nil {
		o.t.Fatalf("step %d: Verify(%d, %d): %v", step, rg.Lo, rg.Hi, err)
	}
	if !reflect.DeepEqual(answers[0].Chain, inproc.Chain) || bounds[0] != want {
		o.t.Fatalf("step %d: FetchBatch + Verify(%d, %d) returned %d records bounded %d, in process %d bounded %d",
			step, rg.Lo, rg.Hi, len(answers[0].Chain.Records), bounds[0], len(inproc.Chain.Records), want)
	}
	o.accepted += 2
	if !hot {
		return
	}
	// The previous version, replayed.
	if old := o.last[rg]; old != nil {
		refErr := o.reference(old, rg)
		_, err := o.cl.Verify([]*core.Answer{old}, []core.Range{{Lo: rg.Lo, Hi: rg.Hi}})
		if (err == nil) != (refErr == nil) || errors.Is(err, freshness.ErrStale) != errors.Is(refErr, freshness.ErrStale) {
			o.t.Fatalf("step %d: replayed previous answer for [%d,%d]: the session says %v, chain.Verify + freshness say %v",
				step, rg.Lo, rg.Hi, err, refErr)
		}
		if refErr != nil {
			o.stale++
		} else {
			o.accepted++
		}
	}
	o.last[rg] = inproc
}

func TestLeafPlanMatchesInProcess(t *testing.T) {
	seeds := leafOracleSeeds
	if testing.Short() || raceEnabled {
		seeds = leafOracleShortSeeds
	}
	accepted, stale := 0, 0
	var total client.Stats
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			o := newLeafOracle(t, seed)
			for step := 1; step <= leafOracleSteps; step++ {
				o.step(step)
			}
			o.dial() // closes the last session's books
			total.Summaries += o.summaries
			total.ClaimHits += o.claimHits
			accepted += o.accepted
			stale += o.stale
			if sv := o.eng.Stats().Cache; sv.Hits == 0 || sv.Invalidations == 0 {
				t.Fatalf("the server's answer cache was not under the comparison: %+v", sv)
			}
		})
	}
	// The comparison is only as good as its mix: without replays proven
	// stale the reject side goes untested, without remembered claims the
	// memo does, without summaries the tails do.
	t.Logf("%d seeds × %d steps: %d accepted, %d proven stale; %d summaries ingested, %d claims remembered",
		seeds, leafOracleSteps, accepted, stale, total.Summaries, total.ClaimHits)
	if !t.Failed() && (stale < accepted/100 || total.ClaimHits == 0 || total.Summaries < uint64(10*seeds)) {
		t.Fatal("degenerate schedule")
	}
}
