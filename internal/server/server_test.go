package server

import (
	"testing"

	"authdb/internal/core"
	"authdb/internal/sigagg/xortest"
	"authdb/internal/workload"
)

// testCacheBytes is the answer-cache budget of tests that expect a hit.
// Entries are charged by their pooled buffer's capacity, which is
// whatever the pool last held, up to 1 MiB: a smaller per-shard budget
// (1/16 of this) would refuse an answer that drew a buffer an earlier
// test in the binary left large.
const testCacheBytes = 64 << 20

// TestServeReflectsUpdates drives the real wire codec end to end: a
// cached range, an intersecting update, and the requirement that the
// next serve decodes to the fresh record.
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
	if err := EnableCache(sys.QS, testCacheBytes); err != nil {
		t.Fatal(err)
	}
	keys := workload.Keys(recs)
	lo, hi := keys[100], keys[140]

	for i := 0; i < 3; i++ { // a first sighting, the build that earns residency, then a hit
		sv, err := sys.QS.Serve(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Verifier.VerifyAnswer(sv.Answer, lo, hi, 10_000); err != nil {
			t.Fatalf("serve %d failed verification: %v", i, err)
		}
		sv.Release()
	}
	st := sys.QS.ServingStats().Answers
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
	sv, err := sys.QS.Serve(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Release()
	if sv.Source != core.ServedBuilt {
		t.Fatalf("post-update serve came from %v, want a rebuild", sv.Source)
	}
	found := false
	for _, r := range sv.Answer.Chain.Records {
		if r.Key == keys[120] && r.TS == 777 && string(r.Attrs[0]) == "fresh" {
			found = true
		}
	}
	if !found {
		t.Fatal("post-update serve does not carry the fresh record")
	}
	if _, err := sys.Verifier.VerifyAnswer(sv.Answer, lo, hi, 10_000); err != nil {
		t.Fatalf("post-update serve failed verification: %v", err)
	}
}
