package client_test

import (
	"testing"

	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/query"
	"authdb/internal/sigagg/bas"
	"authdb/internal/wire"
	"authdb/internal/workload"
)

// TestLeafPathAllocBudget is TestDecodeVerifyAllocBudget for the path a
// session really takes: the same 50-record × 512 B answer under bas, as
// the leaf 'C' frame the server sends, through the client's own frame
// decoder and its one verification path (tail ingestion, claims collected
// per key, one close, freshness), on a session that has seen the answer
// twice, and so knows its claim by content. A range answer is a one-leaf
// plan; it may not cost more objects than the bare core.Verifier path
// does: 12 against its 11, none of them per record (16 against 15 while
// every repeat recomputed its digests, 65 against 64 while each record's
// Attrs was a slice of its own).
func TestLeafPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	sys, err := core.NewSystem(bas.New(0), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := workload.Records(workload.Config{N: 120, RecLen: 512, Seed: 3})
	keys := workload.Keys(recs)
	for _, op := range []func() (*core.UpdateMsg, error){
		func() (*core.UpdateMsg, error) { return sys.DA.Load(recs, 1) },
		func() (*core.UpdateMsg, error) { return sys.DA.ClosePeriod(2) },
	} {
		msg, err := op()
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.QS.Apply(msg); err != nil {
			t.Fatal(err)
		}
	}
	spec := &query.Spec{Rel: core.DefaultRelation, Lo: keys[30], Hi: keys[79]}
	ans, err := sys.QS.Query(spec.Lo, spec.Hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Chain.Records) != 50 || len(ans.Summaries) != 1 {
		t.Fatalf("fixture answer has %d records and %d summaries, want 50 and 1", len(ans.Chain.Records), len(ans.Summaries))
	}
	frame, err := wire.AppendCompositeCore(nil, &wire.Composite{Outer: ans.Chain})
	if err != nil {
		t.Fatal(err)
	}
	frame = wire.AppendRelTails(frame, []wire.RelTail{{Rel: core.DefaultRelation, Summaries: ans.Summaries}})
	cl, err := client.NewSession(client.Config{Scheme: sys.Scheme, Pub: sys.Pub, VerifyWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		own := append([]byte(nil), frame...) // what readFrame allocates
		if err := cl.DecodeVerify(own, spec); err != nil {
			t.Fatal(err)
		}
	}
	run() // ingests the summary, closes the claim
	run() // names it by content
	allocs := testing.AllocsPerRun(20, run)
	t.Logf("%.0f allocations per 50-record leaf answer", allocs)
	if allocs > 13 {
		t.Fatalf("decode + verify of a 50-record leaf answer through the client allocates %.0f objects, budget 13", allocs)
	}
	if st := cl.Stats(); st.Verified != 23 || st.ClaimMisses != 1 || st.ClaimHits != 22 || st.ContentHits != 21 {
		t.Fatalf("the budget was measured on something other than a remembered claim: %+v", st)
	}
}
