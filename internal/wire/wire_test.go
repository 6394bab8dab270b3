package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"authdb/internal/chain"
	"authdb/internal/core"
	"authdb/internal/sigagg/bas"
)

// system builds a loaded one-relation catalog for end-to-end wire tests.
func system(t testing.TB, n int) *core.Relation {
	t.Helper()
	cat, err := core.NewCatalog(bas.New(0), core.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := cat.AddRelation(core.DefaultRelation, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*core.Record, n)
	for i := range recs {
		recs[i] = &core.Record{
			Key:   int64(i+1) * 10,
			Attrs: [][]byte{[]byte(fmt.Sprintf("v-%d", i)), {0x00, 0xFF}},
		}
	}
	msg, err := sys.DA.Load(recs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Deliver(msg); err != nil {
		t.Fatal(err)
	}
	return sys
}

// scan answers [lo, hi] with the summary tail a session that holds
// nothing is sent.
func scan(qs *core.QueryServer, lo, hi int64) (*core.Answer, error) {
	ans, _, err := qs.QueryStamped(lo, hi)
	if err != nil {
		return nil, err
	}
	ans.Summaries = qs.SummariesTail(0, ans.OldestSigTS)
	return ans, nil
}

func TestUpdateMsgRoundTripThroughServer(t *testing.T) {
	// A second server fed only decoded wire bytes must end up in the
	// same state as the primary.
	sys := system(t, 50)
	mirror := core.NewQueryServer(sys.Scheme)

	feed := func(msg *core.UpdateMsg, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.QS.Apply(msg); err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeUpdateMsg(AppendUpdateMsg(nil, msg))
		if err != nil {
			t.Fatal(err)
		}
		if err := mirror.Apply(decoded); err != nil {
			t.Fatal(err)
		}
	}
	feed(sys.DA.Update(100, [][]byte{[]byte("v2")}, 100))
	feed(sys.DA.Insert(&core.Record{Key: 55, Attrs: [][]byte{[]byte("new")}}, 150))
	feed(sys.DA.Delete(200, 200))
	feed(sys.DA.ClosePeriod(1_000))

	if mirror.Len() == 0 {
		t.Fatal("mirror server received nothing")
	}
	// The mirrored upserts must verify under the DA's key.
	ans, err := scan(mirror, 55, 55)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Chain.Records) != 1 || string(ans.Chain.Records[0].Attrs[0]) != "new" {
		t.Fatalf("mirror state wrong: %+v", ans.Chain.Records)
	}
}

func TestUpdateMsgRoundTripExact(t *testing.T) {
	sys := system(t, 10)
	msg, err := sys.DA.Update(50, [][]byte{[]byte("x"), nil, {1, 2, 3}}, 99)
	if err != nil {
		t.Fatal(err)
	}
	closeMsg, err := sys.DA.ClosePeriod(1_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*core.UpdateMsg{msg, closeMsg} {
		got, err := DecodeUpdateMsg(AppendUpdateMsg(nil, m))
		if err != nil {
			t.Fatal(err)
		}
		if got.TS != m.TS || len(got.Upserts) != len(m.Upserts) || len(got.Deletes) != len(m.Deletes) {
			t.Fatalf("shape mismatch: %+v vs %+v", got, m)
		}
		for i := range m.Upserts {
			a, b := got.Upserts[i], m.Upserts[i]
			if a.Rec.RID != b.Rec.RID || a.Rec.Key != b.Rec.Key || a.Rec.TS != b.Rec.TS {
				t.Fatal("record fields lost")
			}
			if string(a.Sig) != string(b.Sig) {
				t.Fatal("signature lost")
			}
			if len(a.Rec.Attrs) != len(b.Rec.Attrs) {
				t.Fatal("attrs lost")
			}
		}
		if (m.Summary == nil) != (got.Summary == nil) {
			t.Fatal("summary presence lost")
		}
		if m.Summary != nil {
			if got.Summary.Seq != m.Summary.Seq || string(got.Summary.Sig) != string(m.Summary.Sig) {
				t.Fatal("summary fields lost")
			}
		}
	}
}

func TestAnswerRoundTripVerifies(t *testing.T) {
	sys := system(t, 100)
	closeMsg, err := sys.DA.ClosePeriod(1_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Deliver(closeMsg); err != nil {
		t.Fatal(err)
	}
	for _, rng := range [][2]int64{{250, 500}, {1, 5} /* empty below domain */, {255, 256} /* empty gap */} {
		ans, err := scan(sys.QS, rng[0], rng[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeComposite(leafFrame(t, ans), core.DefaultRelation)
		if err != nil {
			t.Fatal(err)
		}
		// The decoded answer must verify exactly like the original.
		v := core.NewVerifier(sys.Scheme, sys.Pub, core.DefaultConfig())
		if err := verifyLeaf(v, got, rng[0], rng[1], 1_100); err != nil {
			t.Fatalf("decoded answer for %v failed verification: %v", rng, err)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	sys := system(t, 20)
	ans, err := scan(sys.QS, 50, 150)
	if err != nil {
		t.Fatal(err)
	}
	data := leafFrame(t, ans)
	// Truncations at every prefix must error, never panic.
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := DecodeComposite(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage.
	if _, err := DecodeComposite(append(append([]byte{}, data...), 0xAA)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Wrong kind and version.
	bad := append([]byte{}, data...)
	bad[1] = 'U'
	if _, err := DecodeComposite(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatal("wrong kind accepted")
	}
	bad = append([]byte{}, data...)
	bad[0] = 99
	if _, err := DecodeComposite(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatal("wrong version accepted")
	}
}

func TestDecodeRejectsLengthBombs(t *testing.T) {
	// A hostile length prefix must not trigger a huge allocation.
	w := []byte{Version, KindComposite}
	w = append(w, make([]byte, 16)...) // lo, hi
	w = append(w, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
	if _, err := DecodeComposite(w); !errors.Is(err, ErrCorrupt) {
		t.Fatal("length bomb accepted")
	}
	u := []byte{Version, 'U'}
	u = append(u, make([]byte, 8)...)
	u = append(u, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
	if _, err := DecodeUpdateMsg(u); !errors.Is(err, ErrCorrupt) {
		t.Fatal("length bomb accepted")
	}
}

// TestDecodeBoundsCountsByBytesPresent: the answer decoders size arrays
// by the record, attribute, slot and row counts they read, so a count
// that passes the global limit but that the bytes present cannot hold
// must be refused before anything is allocated by it — 2^24 records
// would be 1 GiB.
func TestDecodeBoundsCountsByBytesPresent(t *testing.T) {
	count := []byte{0, 0, 0, 0, 1, 0, 0, 0}                                  // 2^24, under maxLen
	lyingRecs := append([]byte{Version, KindComposite}, make([]byte, 16)...) // lo, hi
	lyingRecs = append(lyingRecs, count...)
	lyingRecs = append(lyingRecs, make([]byte, 256)...)
	lyingAttrs := append([]byte{Version, KindComposite}, make([]byte, 16)...)
	lyingAttrs = append(lyingAttrs, 0, 0, 0, 0, 0, 0, 0, 1) // one record
	lyingAttrs = append(lyingAttrs, make([]byte, 24)...)    // rid, key, ts
	lyingAttrs = append(lyingAttrs, count...)
	lyingAttrs = append(lyingAttrs, make([]byte, 256)...)
	// The projection section: a slot count, and — over 256 chained records,
	// 256 slots — a rows × slots the bytes present cannot hold (a value
	// header each would be 1.5 MiB), then a value longer than the frame.
	recs := make([]*chain.Record, 256)
	for i := range recs {
		recs[i] = &chain.Record{RID: uint64(i + 1), Key: int64(i)}
	}
	w := &writer{}
	w.u8(Version)
	w.u8(KindComposite)
	putAnswerBody(w, &chain.Answer{Records: recs})
	w.u8(compFlagProj)
	at := len(w.buf)
	w.u64(uint64(len(recs)))
	w.buf = append(w.buf, make([]byte, 8*len(recs)+256)...)
	lyingSlots := w.buf
	lyingIdxs := bytes.Clone(lyingSlots)
	copy(lyingIdxs[at:], count)
	c := testComposite(t)
	lyingValue := compositeFrame(t, c)
	honest, err := DecodeComposite(bytes.Clone(lyingValue))
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint64(lyingValue[honest.Bytes.Outer+8+8*len(c.Proj.AttrIdxs):], 1<<40)
	for name, frame := range map[string][]byte{
		"records": lyingRecs, "attrs": lyingAttrs,
		"attr indexes": lyingIdxs, "rows × slots": lyingSlots, "value length": lyingValue,
	} {
		var err error
		allocated := allocatedBy(func() { _, err = DecodeComposite(frame) })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: lying count accepted (err %v)", name, err)
		}
		if allocated > 64<<10 {
			t.Fatalf("%s: refusing a %d-byte frame allocated %d bytes", name, len(frame), allocated)
		}
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	prop := func(data []byte) bool {
		// Any input either decodes or errors; panics fail the test run.
		DecodeComposite(data)
		DecodeUpdateMsg(data)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
