package client_test

import (
	"fmt"
	"testing"

	"authdb/internal/chain"
	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/join"
	"authdb/internal/query"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/sigagg/xortest"
	"authdb/internal/wire"
	"authdb/internal/workload"
)

// answerFrame returns the encoded 'A' frame of a 50-record × 512 B answer
// under bas, the range it covers, and a single-threaded verifier that has
// already verified it twice: hash-to-curve points and the key's
// precomputation table are warm, and the verifier remembers the claim by
// its content, so what the callers below measure is the session's repeat
// of a known answer — decode, structure, content name, freshness. (The
// digests and claim name a second sighting adds allocate three objects —
// chain.Jobs' — and the curve arithmetic a first sighting adds allocates
// nothing: bas's TestKernelAllocatesNothing.)
func answerFrame(tb testing.TB) ([]byte, span, *core.Verifier) {
	tb.Helper()
	sys := newRelation(tb, bas.New(0))
	recs := workload.Records(workload.Config{N: 120, RecLen: 512, Seed: 3})
	keys := workload.Keys(recs)
	msg, err := sys.DA.Load(recs, 1)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.QS.Apply(msg); err != nil {
		tb.Fatal(err)
	}
	rg := span{Lo: keys[30], Hi: keys[79]}
	ans, _, err := sys.QS.QueryStamped(rg.Lo, rg.Hi)
	if err != nil {
		tb.Fatal(err)
	}
	if len(ans.Chain.Records) != 50 {
		tb.Fatalf("fixture answer has %d records, want 50", len(ans.Chain.Records))
	}
	frame, err := wire.AppendCompositeCore(nil, &wire.Composite{Outer: ans.Chain})
	if err != nil {
		tb.Fatal(err)
	}
	frame = wire.AppendRelTails(frame, []wire.RelTail{{Rel: core.DefaultRelation, Summaries: sys.QS.SummariesTail(0, ans.OldestSigTS)}})
	v := core.NewVerifier(sys.Scheme, sys.Pub, core.DefaultConfig())
	v.SetParallelism(1)
	for i := 0; i < 2; i++ {
		if err := decodeVerify(frame, rg, v); err != nil {
			tb.Fatal(err)
		}
	}
	return frame, rg, v
}

// decodeVerify is the client's per-answer path after the socket read: a
// frame buffer of its own (what readFrame allocates), the aliasing decode,
// full verification: the tail's summaries past the newest held, then
// VerifyScan.
func decodeVerify(frame []byte, rg span, v *core.Verifier) error {
	own := append([]byte(nil), frame...)
	c, err := wire.DecodeComposite(own, core.DefaultRelation)
	if err != nil {
		return err
	}
	for _, s := range c.Tails[0].Summaries {
		if tip, _ := v.LatestSummary(); s.Seq > tip.Seq {
			if err := v.IngestSummary(s); err != nil {
				return err
			}
		}
	}
	_, err = v.VerifyScan(c.Outer, rg.Lo, rg.Hi, 1<<62)
	return err
}

// TestDecodeVerifyAllocBudget pins what the path allocates instead of how
// long it takes: O(1) objects per answer, 7 here (10 while verification
// allocated a report per answer) — the records share one
// array and their Attrs headers one slab, and a claim known by content
// computes no digest. A per-record copy, header, digest or scratch buffer
// creeping back in costs 50 and fails it, and so does a repeat that
// recomputes its digests (15 while every answer did); the path needed 64
// while each record's Attrs was a slice of its own, and over 300 before
// frames were aliased and digests streamed.
func TestDecodeVerifyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	frame, rg, v := answerFrame(t)
	allocs := testing.AllocsPerRun(20, func() {
		if err := decodeVerify(frame, rg, v); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per 50-record answer", allocs)
	if allocs > 12 {
		t.Fatalf("decode + verify of a 50-record answer allocates %.0f objects, budget 12", allocs)
	}
	if st := v.ClaimStats(); st.ContentHits < 20 {
		t.Fatalf("the budget was measured on something other than a claim known by content: %+v", st)
	}
}

// planJoinFrame returns one 'C' frame of the repository benchmark's
// plan_join shape under bas — σ over 201 outer rows, π onto one attribute,
// ⋈ BF against an inner relation holding every third outer key, filter at
// two bits per key — with its spec and a single-threaded session that has
// verified it once.
func planJoinFrame(tb testing.TB) ([]byte, *query.Spec, *client.Client) {
	tb.Helper()
	cat, err := core.NewCatalog(bas.New(0), core.DefaultConfig(), 0)
	if err != nil {
		tb.Fatal(err)
	}
	outer, err := cat.AddRelation("o", nil, []core.DAOption{core.WithAttrSigning()}, []core.Option{core.WithShards(4)})
	if err != nil {
		tb.Fatal(err)
	}
	inner, err := cat.AddRelation("i", nil, nil, []core.Option{core.WithShards(4)})
	if err != nil {
		tb.Fatal(err)
	}
	var orecs, irecs []*core.Record
	for i := 1; i <= 260; i++ {
		k := int64(i) * 10
		orecs = append(orecs, &core.Record{Key: k, Attrs: [][]byte{
			[]byte(fmt.Sprintf("name-%d", k)), []byte(fmt.Sprintf("payload-%d", k)),
		}})
		if i%3 == 0 {
			irecs = append(irecs, &core.Record{Key: k, Attrs: [][]byte{[]byte(fmt.Sprintf("i-%d", k))}})
		}
	}
	eng := query.NewEngine(query.WithCacheBytes(0))
	for _, p := range []struct {
		rel  *core.Relation
		recs []*core.Record
	}{{outer, orecs}, {inner, irecs}} {
		for _, op := range []func() (*core.UpdateMsg, error){
			func() (*core.UpdateMsg, error) { return p.rel.DA.Load(p.recs, 1) },
			func() (*core.UpdateMsg, error) { return p.rel.DA.ClosePeriod(2) },
		} {
			msg, err := op()
			if err != nil {
				tb.Fatal(err)
			}
			if err := p.rel.Deliver(msg); err != nil {
				tb.Fatal(err)
			}
		}
		if err := eng.AddRelation(p.rel.Name, p.rel.QS); err != nil {
			tb.Fatal(err)
		}
	}
	fc, err := inner.DA.CertifyFilter(64, 2, 2)
	if err != nil {
		tb.Fatal(err)
	}
	if err := inner.QS.Apply(&core.UpdateMsg{Filter: fc}); err != nil {
		tb.Fatal(err)
	}
	spec := &query.Spec{Rel: "o", Lo: 25*10 - 5, Hi: 225*10 + 5, Attrs: []int{0}, Join: &query.JoinSpec{Rel: "i", Method: join.BF}}
	if err := spec.Validate(); err != nil {
		tb.Fatal(err)
	}
	body, tails, release, err := eng.ServePlan(spec.Marshal(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	frame := append(append([]byte(nil), body...), tails...)
	release()
	cl, err := client.NewSession(client.Config{Scheme: bas.New(0), Pub: outer.Pub, Relations: map[string]sigagg.PublicKey{"o": outer.Pub, "i": inner.Pub}, VerifyWorkers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if err := cl.DecodeVerify(append([]byte(nil), frame...), spec); err != nil {
		tb.Fatal(err)
	}
	return frame, spec, cl
}

// TestVerifyCompositeAllocBudget is TestLeafPathAllocBudget for a plan with
// every section: what the client allocates to decode and verify one
// plan_join answer it has seen before. Nothing is allocated per row or
// per record any more — 35 objects, all O(1) per section, run and listed
// partition: 31 in the decode (for the projection a row array and one
// flat value array; a body's records share one Attrs slab) and 4 in
// verification (each key's admit, the outer keys the join is resolved
// against, the per-plan proof array; 37 while verification allocated a
// report array and a report). Every claim
// but the partition certifications is known by content, and those are
// one digest each, computed without allocating. It was 51 while every
// repeat recomputed its digests (the projection's a digest array, its
// views and a Writer; chain.Jobs' three per chunk); 725
// objects in an 18.6 KB frame (this one is 13.8 KB) while every projected
// row repeated its rid, ts and value count and had a value slice, a
// digest and a Writer of its own, and every record an Attrs slice; 1,343
// in a 43 KB frame while the join shipped a proof per outer key.
func TestVerifyCompositeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	frame, spec, cl := planJoinFrame(t)
	allocs := testing.AllocsPerRun(20, func() {
		own := append([]byte(nil), frame...) // what readFrame allocates
		if err := cl.DecodeVerify(own, spec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per decoded and verified %d-byte plan_join answer", allocs, len(frame))
	if allocs > 40 {
		t.Fatalf("decode + verify of a plan_join answer allocates %.0f objects, budget 40", allocs)
	}
	if st := cl.Stats(); st.Verified != 22 || st.ClaimHits < 21*st.ClaimMisses || st.ContentHits < 20*st.ClaimMisses/2 {
		t.Fatalf("the budget was measured on something other than remembered claims: %+v", st)
	}
}

func BenchmarkDecodeVerifyAnswer(b *testing.B) {
	frame, rg, v := answerFrame(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodeVerify(frame, rg, v); err != nil {
			b.Fatal(err)
		}
	}
}

// TestJobsBatchAllocBudget pins the keyless half of composite
// verification: a batch of one-record probe proofs is digested through
// one Writer into one digest array with one view array, not three
// allocations per proof (197 for this batch before they were shared).
// What remains is per batch: the jobs and those three.
func TestJobsBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	sys := newRelation(t, xortest.New())
	recs := workload.Records(workload.Config{N: 64, RecLen: 64, Seed: 3})
	msg, err := sys.DA.Load(recs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.QS.Apply(msg); err != nil {
		t.Fatal(err)
	}
	var answers []*chain.Answer
	for _, k := range workload.Keys(recs) {
		hit, _, err := sys.QS.QueryStamped(k, k)
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, hit.Chain)
	}
	allocs := testing.AllocsPerRun(20, func() {
		jobs, err := chain.Jobs(answers, 1)
		if err != nil || len(jobs) != len(answers) {
			t.Fatalf("%d jobs, %v", len(jobs), err)
		}
	})
	t.Logf("%.0f allocations per %d-answer batch", allocs, len(answers))
	if allocs > 8 {
		t.Fatalf("digesting %d one-record answers allocates %.0f objects, budget 8", len(answers), allocs)
	}
}
