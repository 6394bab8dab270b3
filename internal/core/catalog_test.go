package core

import (
	"bytes"
	"fmt"
	"testing"

	"authdb/internal/projection"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/sigagg/xortest"
)

func projRecords(n int) []*Record {
	recs := make([]*Record, n)
	for i := range recs {
		recs[i] = &Record{
			Key:   int64(10 * (i + 1)),
			Attrs: [][]byte{[]byte(fmt.Sprintf("a%d", i)), []byte(fmt.Sprintf("b%d", i))},
		}
	}
	return recs
}

// A projection-mode relation strips attributes from the chained records
// but ships values and per-slot signatures as a sideband; the server
// stores both and serves consistent rows, and the chain still verifies.
func TestProjectionModeEndToEnd(t *testing.T) {
	cat, err := NewCatalog(bas.New(0), DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := cat.AddRelation("r", nil, []DAOption{WithAttrSigning()}, []Option{WithShards(2)})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := rel.DA.Load(projRecords(50), 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, up := range msg.Upserts {
		if up.Rec.Attrs != nil {
			t.Fatalf("upsert %d: chained record still carries attributes", i)
		}
		if len(up.AttrVals) != 2 || len(up.AttrSigs) != 2 {
			t.Fatalf("upsert %d: sideband %d/%d, want 2/2", i, len(up.AttrVals), len(up.AttrSigs))
		}
	}
	if err := rel.Deliver(msg); err != nil {
		t.Fatal(err)
	}
	if msg, err = rel.DA.ClosePeriod(1_000); err != nil {
		t.Fatal(err)
	}
	if err := rel.Deliver(msg); err != nil {
		t.Fatal(err)
	}

	ans, rows, _, err := rel.QS.QueryProj(15, 85)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ans.Chain.Records) || len(rows) == 0 {
		t.Fatalf("%d rows for %d records", len(rows), len(ans.Chain.Records))
	}
	// The stripped chain must verify under the relation's key…
	sums := rel.QS.SummariesTail(0, ans.OldestSigTS)
	rep, err := verifyBatch(rel.Verifier, []*Answer{{Chain: ans.Chain, Summaries: sums, OldestSigTS: ans.OldestSigTS}}, []span{{Lo: 15, Hi: 85}}, 1_000)
	if err != nil {
		t.Fatalf("chain verify: %v (report %+v)", err, rep)
	}
	// …and every row's per-slot signatures under projection.Verify, for a
	// projection onto the second attribute only.
	prows := make([]projection.Row, len(rows))
	ops := make([][]sigagg.Operand, len(rows))
	for i, r := range rows {
		if r.RID != ans.Chain.Records[i].RID || r.TS != ans.Chain.Records[i].TS {
			t.Fatalf("row %d misaligned with chained record", i)
		}
		prows[i] = projection.Row{RID: r.RID, TS: r.TS, Values: [][]byte{r.Vals[1]}}
		ops[i] = r.Ops
	}
	pans, err := projection.Build(rel.Scheme, []int{1}, prows, ops)
	if err != nil {
		t.Fatal(err)
	}
	if err := projection.Verify(rel.Scheme, rel.Pub, pans); err != nil {
		t.Fatalf("projection verify: %v", err)
	}

	// An update re-seals the sideband at the new timestamp.
	if msg, err = rel.DA.Update(20, [][]byte{[]byte("a-new"), []byte("b-new")}, 2_000); err != nil {
		t.Fatal(err)
	}
	if len(msg.Upserts) != 1 || !bytes.Equal(msg.Upserts[0].AttrVals[0], []byte("a-new")) {
		t.Fatalf("update sideband not re-sealed: %+v", msg.Upserts)
	}
	if err := rel.Deliver(msg); err != nil {
		t.Fatal(err)
	}
	_, rows, _, err = rel.QS.QueryProj(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].TS != 2_000 || !bytes.Equal(rows[0].Vals[1], []byte("b-new")) {
		t.Fatalf("served sideband stale after update: %+v", rows)
	}

	// Snapshot round trip preserves the sideband (server) and restores
	// full records (owner).
	st := rel.QS.Snapshot()
	qs2 := NewQueryServer(rel.Scheme, WithShards(2))
	if err := qs2.Restore(st); err != nil {
		t.Fatal(err)
	}
	_, rows2, _, err := qs2.QueryProj(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 1 || !bytes.Equal(rows2[0].Vals[0], []byte("a-new")) {
		t.Fatalf("restored server lost sideband: %+v", rows2)
	}
	own := rel.DA.SnapshotMeta()
	own.Records = st.Records // the server's image is the owner's (wal.Capture)
	da2, err := NewDataAggregator(rel.Scheme, nil, DefaultConfig(), WithAttrSigning())
	if err != nil {
		t.Fatal(err)
	}
	if err := da2.Restore(own); err != nil {
		t.Fatal(err)
	}
	// The restored owner must hold full records again (an attribute update
	// needs them to re-chain neighbours correctly).
	if got := da2.held(msg.Upserts[0].Rec.RID); got == nil || len(got.Attrs) != 2 {
		t.Fatalf("restored owner lost attribute values: %+v", got)
	}
}

// QueryProj sizes its sideband once, from the scan's record count: its
// rows cost one allocation beyond the plain scan's, not one per doubling.
func TestQueryProjSizesSidebandOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	cat, err := NewCatalog(xortest.New(), DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := cat.AddRelation("r", nil, []DAOption{WithAttrSigning()}, []Option{WithShards(2)})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := rel.DA.Load(projRecords(300), 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.Deliver(msg); err != nil {
		t.Fatal(err)
	}
	const lo, hi = 15, 2_015 // 200 records across both shards
	if _, rows, _, err := rel.QS.QueryProj(lo, hi); err != nil || len(rows) != 200 {
		t.Fatalf("QueryProj: %d rows, %v", len(rows), err)
	}
	plain := testing.AllocsPerRun(20, func() { rel.QS.QueryStamped(lo, hi) })
	proj := testing.AllocsPerRun(20, func() { rel.QS.QueryProj(lo, hi) })
	if proj > plain+2 {
		t.Fatalf("QueryProj allocates %.0f objects, the plain scan %.0f: the sideband is not sized once", proj, plain)
	}
}

// Ordinary relations must be byte-for-byte unaffected by the projection
// machinery: no sideband, full records in the chain.
func TestOrdinaryRelationHasNoSideband(t *testing.T) {
	sys := newSystem(t, xortest.New())
	msg, err := sys.DA.Load(projRecords(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, up := range msg.Upserts {
		if up.AttrVals != nil || up.AttrSigs != nil {
			t.Fatalf("upsert %d: unexpected sideband", i)
		}
		if len(up.Rec.Attrs) != 2 {
			t.Fatalf("upsert %d: chained record stripped", i)
		}
	}
}

// Catalog relations are cryptographically separated: a chain signed by
// one relation's owner must not verify under another's key. (xortest
// would not do here — its nil-entropy KeyGen hands every relation the
// same zero key.)
func TestCatalogDomainSeparation(t *testing.T) {
	cat, err := NewCatalog(bas.New(0), DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := cat.AddRelation("outer", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cat.AddRelation("inner", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AddRelation("outer", nil, nil, nil); err == nil {
		t.Fatal("duplicate relation name accepted")
	}
	msg, err := r1.DA.Load(projRecords(20), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Deliver(msg); err != nil {
		t.Fatal(err)
	}
	ans, err := scan(r1.QS, 10, 90)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifyBatch(r1.Verifier, []*Answer{ans}, []span{{Lo: 10, Hi: 90}}, 5); err != nil {
		t.Fatalf("own-key verify: %v", err)
	}
	if _, err := verifyBatch(r2.Verifier, []*Answer{ans}, []span{{Lo: 10, Hi: 90}}, 5); err == nil {
		t.Fatal("foreign relation's answer verified under the wrong key")
	}
}
