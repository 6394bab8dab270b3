package server

import (
	"bytes"
	"testing"

	"authdb/internal/core"
	"authdb/internal/query"
	"authdb/internal/sigagg/xortest"
	"authdb/internal/wire"
	"authdb/internal/workload"
)

// TestServeReflectsUpdates drives the real wire codec end to end through
// the engine a NetServer answers with: a cached range, an intersecting
// update, and the requirement that the next serve decodes to the fresh
// record.
func TestServeReflectsUpdates(t *testing.T) {
	sys, err := core.NewSystem(xortest.New(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := workload.Records(workload.Config{N: 1_000, RecLen: 64, Seed: 5})
	msg, err := sys.DA.Load(recs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.QS.Apply(msg); err != nil {
		t.Fatal(err)
	}
	eng := query.NewEngine()
	if err := eng.AddRelation(core.DefaultRelation, sys.QS); err != nil {
		t.Fatal(err)
	}
	keys := workload.Keys(recs)
	lo, hi := keys[100], keys[140]
	plan := (&query.Spec{Rel: core.DefaultRelation, Lo: lo, Hi: hi}).Marshal()
	serve := func(i int) *core.Answer {
		t.Helper()
		sv, err := eng.Serve(plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sv.Release()
		c, err := wire.DecodeComposite(append(bytes.Clone(sv.Body), sv.Tails...))
		if err != nil {
			t.Fatal(err)
		}
		ans := &core.Answer{Chain: c.Outer, Summaries: c.Tails[0].Summaries}
		if _, err := sys.Verifier.VerifyAnswer(ans, lo, hi, 10_000); err != nil {
			t.Fatalf("serve %d failed verification: %v", i, err)
		}
		return ans
	}

	for i := 0; i < 3; i++ { // a first sighting, the build that earns residency, then a hit
		serve(i)
	}
	st := eng.Stats().Cache
	if st.Hits != 1 || st.Built != 2 || st.Entries != 1 {
		t.Fatalf("expected two builds, one resident, and one hit: %+v", st)
	}

	up, err := sys.DA.Update(keys[120], [][]byte{[]byte("fresh")}, 777)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.QS.Apply(up); err != nil {
		t.Fatal(err)
	}
	ans := serve(3)
	if got := eng.Stats().Cache; got.Built != st.Built+1 || got.Hits != st.Hits {
		t.Fatalf("post-update serve was not a rebuild: %+v", got)
	}
	found := false
	for _, r := range ans.Chain.Records {
		if r.Key == keys[120] && r.TS == 777 && string(r.Attrs[0]) == "fresh" {
			found = true
		}
	}
	if !found {
		t.Fatal("post-update serve does not carry the fresh record")
	}
}
