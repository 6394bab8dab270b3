package main

import (
	"fmt"
	"testing"

	"authdb/internal/digest"
	"authdb/internal/sigagg"
	"authdb/internal/workload"
)

// TestMeasureBASVerifyPaysTheAggregate: the BAS verify time that table4
// and the Fig. 7/9 simulations report is the paper's client — one full
// aggregate verification per answer — not a session verifier's memory of
// having verified that answer before. Held to half of one AggregateVerify
// of the same cardinality on the same scheme (the emulated pairings are
// ≈ 99 % of either, so a memo hit would be three orders of magnitude
// under it).
func TestMeasureBASVerifyPaysTheAggregate(t *testing.T) {
	const card = 16
	tb, err := buildTestbed(400, 1)
	if err != nil {
		t.Fatal(err)
	}
	costs, err := tb.measureBAS(card)
	if err != nil {
		t.Fatal(err)
	}

	// The query measureBAS drew (same generator, same seed) fixes the
	// cardinality it actually verified.
	q := workload.NewQueryGen(tb.keys, float64(card)/float64(tb.n), 11).Next()
	ans, _, err := tb.sys.QS.QueryStamped(q.Lo, q.Hi)
	if err != nil {
		t.Fatal(err)
	}
	got := len(ans.Chain.Records)
	if got < card/2 {
		t.Fatalf("fixture: the query returned %d records, wanted about %d", got, card)
	}

	scheme := tb.sys.Scheme
	priv, pub := mustKeys(scheme)
	digests := make([][]byte, got)
	sigs := make([]sigagg.Signature, got)
	for i := range digests {
		d := digest.Sum([]byte(fmt.Sprintf("floor-%d", i)))
		digests[i] = d[:]
		if sigs[i], err = scheme.Sign(priv, d[:]); err != nil {
			t.Fatal(err)
		}
	}
	agg, err := scheme.Aggregate(sigs)
	if err != nil {
		t.Fatal(err)
	}
	floor := timeIt(1, func() {
		if err := scheme.AggregateVerify(pub, digests, agg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("measureBAS verify %v, one %d-signature AggregateVerify %v", costs.verify, got, floor)
	if costs.verify < floor/2 {
		t.Fatalf("measureBAS reports %v per verification, under half of one %d-signature AggregateVerify (%v): the loop is not reaching the scheme",
			costs.verify, got, floor)
	}
}
