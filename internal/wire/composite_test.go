package wire

import (
	"reflect"
	"testing"

	"authdb/internal/bloom"
	"authdb/internal/chain"
	"authdb/internal/core"
	"authdb/internal/freshness"
	"authdb/internal/join"
	"authdb/internal/projection"
	"authdb/internal/sigagg"
)

func TestPlanReqRoundTrip(t *testing.T) {
	rels := []RelSince{{Name: "outer", SinceSeq: 7}, {Name: "inner"}}
	for _, kind := range []byte{'J', 'P'} {
		buf, err := AppendPlanReq(nil, kind, []byte("plan-bytes"), rels)
		if err != nil {
			t.Fatal(err)
		}
		plan, got, err := DecodePlanReq(buf)
		if err != nil {
			t.Fatal(err)
		}
		if string(plan) != "plan-bytes" || !reflect.DeepEqual(got, rels) {
			t.Fatalf("kind %q: round trip %q %v", kind, plan, got)
		}
	}
	if _, err := AppendPlanReq(nil, 'Q', nil, nil); err == nil {
		t.Fatal("bad kind accepted")
	}
}

// testComposite is a composite answer with every section present: a
// projection, a join carrying a match, a Bloom-partition non-match and a
// boundary non-match, and two summary tails.
func testComposite(t testing.TB) *Composite {
	t.Helper()
	pf, err := bloom.BuildPartitioned([]int64{5, 10, 15, 20}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	return &Composite{
		Outer: &chain.Answer{
			Lo: 1, Hi: 9,
			Records: []*chain.Record{{RID: 1, Key: 2, TS: 3, Attrs: [][]byte{[]byte("x")}}},
			Left:    chain.MinRef, Right: chain.MaxRef,
			Agg: sigagg.Signature("agg"),
		},
		Proj: &projection.Answer{
			AttrIdxs: []int{1},
			Rows:     []projection.Row{{RID: 1, TS: 3, Values: [][]byte{[]byte("v")}}},
			Agg:      sigagg.Signature("pagg"),
		},
		Join: &join.Answer{
			Method: join.BF, FilterTS: 77,
			Matches: []*chain.Answer{{
				Lo: 5, Hi: 5,
				Records: []*chain.Record{{RID: 9, Key: 5, TS: 1}},
				Left:    chain.MinRef, Right: chain.MaxRef,
				Agg: sigagg.Signature("m"),
			}},
			Unmatched: []join.UnmatchedProof{
				{RA: 6, Partition: &pf.Partitions[0], PartSig: sigagg.Signature("ps")},
				{RA: 7, Boundary: &chain.Answer{
					Lo: 7, Hi: 7,
					Anchor:     &chain.Record{RID: 9, Key: 5, TS: 1},
					AnchorLeft: chain.MinRef,
					Left:       chain.MinRef, Right: chain.MaxRef,
					Agg: sigagg.Signature("b"),
				}},
			},
		},
		Tails: []RelTail{
			{Rel: "inner", Summaries: []freshness.Summary{{Seq: 1, PeriodStart: 1, TS: 2, Compressed: []byte("c"), Sig: sigagg.Signature("s")}}},
			{Rel: "outer"},
		},
	}
}

func TestCompositeRoundTrip(t *testing.T) {
	c := testComposite(t)
	buf, err := AppendCompositeCore(GetBuffer(), c)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { PutBuffer(buf) }()
	buf = AppendRelTails(buf, c.Tails)
	got, err := DecodeComposite(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("composite round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
	// Truncation and trailing garbage both fail loudly.
	if _, err := DecodeComposite(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated composite accepted")
	}
	if _, err := DecodeComposite(append(append([]byte(nil), buf...), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestUpdateMsgSidebandRoundTrip(t *testing.T) {
	msg := &core.UpdateMsg{
		TS: 9,
		Upserts: []core.SignedRecord{
			{
				Rec:      &chain.Record{RID: 1, Key: 5, TS: 9},
				Sig:      sigagg.Signature("sig"),
				AttrVals: [][]byte{[]byte("a"), []byte("b")},
				AttrSigs: []sigagg.Signature{sigagg.Signature("s0"), sigagg.Signature("s1")},
			},
			{Rec: &chain.Record{RID: 2, Key: 6, TS: 9, Attrs: [][]byte{[]byte("full")}}, Sig: sigagg.Signature("sig2")},
		},
	}
	got, err := DecodeUpdateMsg(EncodeUpdateMsg(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("sideband round trip mismatch:\n got %+v\nwant %+v", got, msg)
	}
	if got.Upserts[0].AttrVals == nil || got.Upserts[1].AttrVals != nil {
		t.Fatal("sideband presence not preserved")
	}
}

func TestRelSumsReqRoundTrip(t *testing.T) {
	buf := AppendRelSumsReq(nil, "inner", 42, -1)
	rel, seq, ts, err := DecodeRelSumsReq(buf)
	if err != nil {
		t.Fatal(err)
	}
	if rel != "inner" || seq != 42 || ts != -1 {
		t.Fatalf("round trip %q %d %d", rel, seq, ts)
	}
}
