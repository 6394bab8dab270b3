package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"strings"
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
	buf := AppendPlanReq(nil, []byte("plan-bytes"), rels, 0)
	plan, got, held, err := DecodePlanReq(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(plan) != "plan-bytes" || !reflect.DeepEqual(got, rels) || held != 0 {
		t.Fatalf("round trip %q %v %#x", plan, got, held)
	}
	// A held answer's digest rides at the end, eight bytes, and is never 0.
	withHeld := AppendPlanReq(nil, []byte("plan-bytes"), rels, 0xfeed)
	if len(withHeld) != len(buf)+8 {
		t.Fatalf("the digest costs %d bytes, want 8", len(withHeld)-len(buf))
	}
	if plan, got, held, err = DecodePlanReq(withHeld, nil); err != nil || string(plan) != "plan-bytes" || !reflect.DeepEqual(got, rels) || held != 0xfeed {
		t.Fatalf("round trip with a digest: %q %v %#x %v", plan, got, held, err)
	}
	zero := append(buf[:len(buf):len(buf)], make([]byte, 8)...)
	if _, _, _, err := DecodePlanReq(zero, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("an explicit zero digest: %v, want ErrCorrupt", err)
	}
	if _, _, _, err := DecodePlanReq(withHeld[:len(withHeld)-1], nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a truncated digest: %v, want ErrCorrupt", err)
	}
	// A plan names at most two relations, each by a name the planner would
	// take: more positions, or a longer name, are refused on their count
	// and length alone.
	three := AppendPlanReq(nil, []byte("p"), []RelSince{{Name: "a"}, {Name: "b"}, {Name: "c"}}, 0)
	if _, _, _, err := DecodePlanReq(three, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("three summary positions: %v, want ErrCorrupt", err)
	}
	long := AppendPlanReq(nil, []byte("p"), []RelSince{{Name: strings.Repeat("n", maxRelName+1)}}, 0)
	if _, _, _, err := DecodePlanReq(long, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a %d-byte relation name: %v, want ErrCorrupt", maxRelName+1, err)
	}
	if _, got, _, err := DecodePlanReq(AppendPlanReq(nil, []byte("p"), []RelSince{{Name: strings.Repeat("n", maxRelName)}}, 0), nil); err != nil || len(got) != 1 {
		t.Fatalf("a %d-byte relation name: %v", maxRelName, err)
	}
	// The count is refused before it sizes anything: a frame claiming 2^60
	// positions is a few bytes long and must not allocate by them.
	bomb := AppendPlanReq(nil, []byte("p"), nil, 0)
	binary.BigEndian.PutUint64(bomb[len(bomb)-8:], 1<<60)
	if _, _, _, err := DecodePlanReq(bomb, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("position-count bomb: %v, want ErrCorrupt", err)
	}
}

// TestLeafCompositeEnvelope pins what carrying a range answer as a leaf
// composite costs over the answer body and its summary count: the flags
// byte, the tail count, and the relation's length-prefixed name — 18
// bytes for core.DefaultRelation. wire_bytes_per_answer pays it on every
// range answer, so it may not grow unnoticed.
func TestLeafCompositeEnvelope(t *testing.T) {
	sys := system(t, 30)
	ans, err := scan(sys.QS, 50, 200)
	if err != nil {
		t.Fatal(err)
	}
	frame := leafFrame(t, ans)
	w := &writer{}
	w.u8(Version)
	w.u8(KindComposite)
	putAnswerBody(w, ans.Chain)
	w.u64(uint64(len(ans.Summaries)))
	for i := range ans.Summaries {
		putSummary(w, &ans.Summaries[i])
	}
	if got := len(frame) - len(w.buf); got != 18 {
		t.Fatalf("a leaf 'C' carries %d bytes beside its body and summaries, want 18", got)
	}
	// And it is the frame any composite decoder reads.
	c, err := DecodeComposite(frame)
	if err != nil || c.Proj != nil || c.Join != nil || len(c.Tails) != 1 || c.Tails[0].Rel != core.DefaultRelation {
		t.Fatalf("leaf composite decodes to %+v, %v", c, err)
	}
}

// testComposite is a composite answer with every section present: a
// projection of both outer records onto two slots (an empty value among
// them), a join carrying a run with a record, an anchored empty run and
// two partitions' Bloom negatives, and two summary tails.
func testComposite(t testing.TB) *Composite {
	t.Helper()
	pf, err := bloom.BuildPartitioned([]int64{5, 10, 15, 20}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	return &Composite{
		Outer: &chain.Answer{
			Lo: 1, Hi: 9,
			Records: []*chain.Record{{RID: 1, Key: 2, TS: 3, Attrs: [][]byte{[]byte("x")}}, {RID: 4, Key: 6, TS: 5}},
			Left:    chain.MinRef, Right: chain.MaxRef,
			Agg: sigagg.Signature("agg"),
		},
		Proj: &projection.Answer{
			AttrIdxs: []int{1, 0},
			Rows: []projection.Row{
				{RID: 1, TS: 3, Values: [][]byte{[]byte("v"), []byte("w")}},
				{RID: 4, TS: 5, Values: [][]byte{[]byte("long value"), {}}},
			},
			Agg: sigagg.Signature("pagg"),
		},
		Join: &join.Answer{
			Method: join.BF, FilterTS: 77,
			Runs: []*chain.Answer{{
				Lo: 5, Hi: 6,
				Records: []*chain.Record{{RID: 9, Key: 5, TS: 1}},
				Left:    chain.MinRef, Right: chain.MaxRef,
				Agg: sigagg.Signature("m"),
			}, {
				Lo: 7, Hi: 7,
				Anchor:     &chain.Record{RID: 9, Key: 5, TS: 1},
				AnchorLeft: chain.MinRef,
				Left:       chain.MinRef, Right: chain.MaxRef,
				Agg: sigagg.Signature("b"),
			}},
			Negatives: []join.Negatives{
				{Partition: &pf.Partitions[0], PartSig: sigagg.Signature("ps"), Keys: []int64{8, 9}},
				{Partition: &pf.Partitions[1], PartSig: sigagg.Signature("pt"), Keys: []int64{16}},
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
	// What each section took, measured by encoding it alone: the header,
	// the outer chain and the flags; the projection; the join; the tails.
	sizes := SectionBytes{Outer: 2 + 1, Tails: len(AppendRelTails(nil, c.Tails))}
	for _, enc := range []struct {
		n   *int
		put func(w *writer) error
	}{
		{&sizes.Outer, func(w *writer) error { putAnswerBody(w, c.Outer); return nil }},
		{&sizes.Proj, func(w *writer) error { return putProjection(w, c.Proj, c.Outer) }},
		{&sizes.Join, func(w *writer) error { return putJoin(w, c.Join) }},
	} {
		w := &writer{}
		if err := enc.put(w); err != nil {
			t.Fatal(err)
		}
		*enc.n += len(w.buf)
	}
	if got.Bytes != sizes {
		t.Fatalf("section bytes %+v, encoded alone %+v", got.Bytes, sizes)
	}
	got.Bytes = SectionBytes{}
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

// compositeFrame encodes c as the one 'C' message a client receives.
func compositeFrame(t testing.TB, c *Composite) []byte {
	t.Helper()
	body, err := AppendCompositeCore(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	return AppendRelTails(body, c.Tails)
}

// leafFrame is the 'C' frame of a bare scan of core.DefaultRelation that
// ans answers: the composite of its chain, its summaries the one tail.
func leafFrame(t testing.TB, ans *core.Answer) []byte {
	t.Helper()
	return compositeFrame(t, &Composite{Outer: ans.Chain, Tails: []RelTail{{Rel: core.DefaultRelation, Summaries: ans.Summaries}}})
}

// verifyLeaf checks a decoded leaf frame with a verifier that holds
// nothing yet: its tail's summaries, then VerifyScan.
func verifyLeaf(v *core.Verifier, c *Composite, lo, hi, now int64) error {
	for _, s := range c.Tails[0].Summaries {
		if err := v.IngestSummary(s); err != nil {
			return err
		}
	}
	_, err := v.VerifyScan(c.Outer, lo, hi, now)
	return err
}

// TestProjectionSectionIsValues: the projection section is the slots, then
// for each chained record exactly one length-prefixed value per slot, then
// the aggregate — no rid, ts or value count per row, and row i is chained
// record i. A section with one value too few or one too many is refused as
// corrupt, and rows that are not the chain's records are not encoded.
func TestProjectionSectionIsValues(t *testing.T) {
	c := testComposite(t)
	frame := compositeFrame(t, c)
	got, err := DecodeComposite(bytes.Clone(frame))
	if err != nil {
		t.Fatal(err)
	}
	want := &writer{}
	want.u64(uint64(len(c.Proj.AttrIdxs)))
	for _, idx := range c.Proj.AttrIdxs {
		want.u64(uint64(idx))
	}
	for _, row := range c.Proj.Rows {
		for _, v := range row.Values {
			want.bytes(v)
		}
	}
	want.bytes(c.Proj.Agg)
	at := got.Bytes.Outer
	if sec := frame[at : at+got.Bytes.Proj]; !bytes.Equal(sec, want.buf) {
		t.Fatalf("projection section %x, want %x", sec, want.buf)
	}
	for i, rec := range got.Outer.Records {
		if row := got.Proj.Rows[i]; row.RID != rec.RID || row.TS != rec.TS {
			t.Fatalf("row %d decoded as rid %d ts %d, chained record rid %d ts %d", i, row.RID, row.TS, rec.RID, rec.TS)
		}
	}

	first := at + 8 + 8*len(c.Proj.AttrIdxs) // the first value's length prefix
	val := frame[first : first+8+len(c.Proj.Rows[0].Values[0])]
	for name, bad := range map[string][]byte{
		"one value too few":  slices.Concat(frame[:first], frame[first+len(val):]),
		"one value too many": slices.Concat(frame[:first], val, frame[first:]),
	} {
		if _, err := DecodeComposite(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v, want ErrCorrupt", name, err)
		}
	}

	for name, mutate := range map[string]func(p *projection.Answer){
		"a row missing":        func(p *projection.Answer) { p.Rows = p.Rows[:1] },
		"a value missing":      func(p *projection.Answer) { p.Rows[1].Values = p.Rows[1].Values[:1] },
		"another record's rid": func(p *projection.Answer) { p.Rows[0].RID = p.Rows[1].RID },
		"another version's ts": func(p *projection.Answer) { p.Rows[1].TS-- },
	} {
		c := testComposite(t)
		mutate(c.Proj)
		if _, err := AppendCompositeCore(nil, c); err == nil {
			t.Fatalf("%s: encoded", name)
		}
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
	got, err := DecodeUpdateMsg(AppendUpdateMsg(nil, msg))
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

// testFilterCert is a certified filter of two partitions, as a decoder
// yields it: nothing but the partitions and their certifications.
func testFilterCert(t testing.TB) *join.FilterCert {
	t.Helper()
	pf, err := bloom.BuildPartitioned([]int64{5, 10, 15, 20}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	return &join.FilterCert{
		PF:   &bloom.PartitionedFilter{Partitions: pf.Partitions},
		TS:   77,
		Sigs: []sigagg.Signature{sigagg.Signature("ps"), sigagg.Signature("pt")},
	}
}

// TestUpdateMsgFilterSection: a re-certified filter rides a dissemination
// message under a spare bit of the byte that was the summary flag, so a
// message without one is encoded as it always was; what decodes is
// canonical — no unknown flag, no partition the bytes cannot hold, nothing
// after the last section.
func TestUpdateMsgFilterSection(t *testing.T) {
	sum := &freshness.Summary{Seq: 3, PeriodStart: 60, TS: 70, Compressed: []byte{2}, Sig: sigagg.Signature("z")}
	rec := core.SignedRecord{Rec: &chain.Record{RID: 1, Key: 5, TS: 9}, Sig: sigagg.Signature("sig")}
	fc := testFilterCert(t)
	flagAt := func(msg *core.UpdateMsg) int { // the deletes are the last thing before the flag byte
		return len(AppendUpdateMsg(nil, &core.UpdateMsg{TS: msg.TS, Upserts: msg.Upserts, Deletes: msg.Deletes})) - 1
	}
	for i, msg := range []*core.UpdateMsg{
		{TS: 9},
		{TS: 9, Upserts: []core.SignedRecord{rec}, Deletes: []chain.Ref{{Key: 4, RID: 4}}, Summary: sum},
		{TS: 78, Filter: fc},
		{TS: 78, Upserts: []core.SignedRecord{rec}, Summary: sum, Filter: fc},
	} {
		data := AppendUpdateMsg(nil, msg)
		got, err := DecodeUpdateMsg(data)
		if err != nil || !reflect.DeepEqual(got, msg) {
			t.Fatalf("message %d round trip: %v\n got %+v\nwant %+v", i, err, got, msg)
		}
		at, want := flagAt(msg), byte(0)
		if msg.Summary != nil {
			want |= 1
		}
		if msg.Filter != nil {
			want |= 2
		}
		if data[at] != want {
			t.Fatalf("message %d: flag byte %#x, want %#x", i, data[at], want)
		}
		if msg.Filter == nil {
			// Byte for byte what the summary-flag format wrote: the flag, then
			// the summary or nothing.
			tail := []byte{want}
			if msg.Summary != nil {
				w := &writer{buf: tail}
				putSummary(w, msg.Summary)
				tail = w.buf
			}
			if !bytes.Equal(data[at:], tail) {
				t.Fatalf("message %d without a filter grew: tail %x, want %x", i, data[at:], tail)
			}
		}
		for bit := byte(4); bit != 0; bit <<= 1 {
			bad := bytes.Clone(data)
			bad[at] |= bit
			if _, err := DecodeUpdateMsg(bad); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("message %d: flag bit %#x accepted (%v)", i, bit, err)
			}
		}
		if _, err := DecodeUpdateMsg(append(bytes.Clone(data), 0)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("message %d: trailing byte accepted (%v)", i, err)
		}
		for cut := at; cut < len(data); cut++ {
			if _, err := DecodeUpdateMsg(data[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("message %d: truncation at %d accepted (%v)", i, cut, err)
			}
		}
	}
	// A partition count the bytes cannot hold is refused before it sizes
	// anything (the count follows the flag byte and the filter time).
	data := AppendUpdateMsg(nil, &core.UpdateMsg{TS: 78, Filter: fc})
	at := flagAt(&core.UpdateMsg{TS: 78}) + 1 + 8
	binary.BigEndian.PutUint64(data[at:], 1<<24)
	var err error
	if allocated := allocatedBy(func() { _, err = DecodeUpdateMsg(data) }); !errors.Is(err, ErrCorrupt) || allocated > 64<<10 {
		t.Fatalf("lying partition count: err %v after allocating %d bytes", err, allocated)
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
