package main

import (
	"testing"

	"authdb/internal/sigagg"
	"authdb/internal/workload"
)

// TestMeasureBASVerifyPaysTheAggregate: the BAS verify time that table4
// and the Fig. 7/9 simulations report is the paper's client — one full
// aggregate verification per answer — not a session verifier's memory of
// having verified that answer before. It counts the pairings the scheme
// emulates, not time: every timed verification of a t-record answer must
// charge the t+1 pairings of one aggregate verification (a memo hit would
// charge none, and the testbed's memoising verifier is not consulted),
// and nothing else measureBAS does charges any.
func TestMeasureBASVerifyPaysTheAggregate(t *testing.T) {
	const card = 16
	tb, err := buildTestbed(400, 1)
	if err != nil {
		t.Fatal(err)
	}
	pairings := func() uint64 {
		return tb.sys.Scheme.(sigagg.VerifyStatsProvider).VerifyStats().EmulatedPairings
	}
	before, memo := pairings(), tb.sys.Verifier.ClaimStats()
	if _, err := tb.measureBAS(card); err != nil {
		t.Fatal(err)
	}
	charged := pairings() - before
	if after := tb.sys.Verifier.ClaimStats(); after != memo {
		t.Fatalf("measureBAS went through the testbed's memoising verifier: %+v -> %+v", memo, after)
	}

	// The query measureBAS drew (same generator, same seed) fixes the
	// cardinality it actually verified.
	q := workload.NewQueryGen(tb.keys, float64(card)/float64(tb.n), 11).Next()
	ans, _, err := tb.sys.QS.QueryStamped(q.Lo, q.Hi)
	if err != nil {
		t.Fatal(err)
	}
	got := uint64(len(ans.Chain.Records))
	if got < card/2 {
		t.Fatalf("fixture: the query returned %d records, wanted about %d", got, card)
	}
	t.Logf("measureBAS charged %d pairings: %d verifications of a %d-record answer", charged, charged/(got+1), got)
	if charged == 0 || charged%(got+1) != 0 {
		t.Fatalf("measureBAS charged %d emulated pairings, not a multiple of the %d of one %d-signature aggregate verification: the loop is not reaching the scheme",
			charged, got+1, got)
	}
}
