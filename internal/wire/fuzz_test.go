package wire

// Fuzz targets for every decoder that faces untrusted bytes. The seed
// corpus (valid encodings plus systematic mutations) runs as normal
// tests — `go test` executes every f.Add seed without -fuzz — so the
// no-panic and bounded-allocation guarantees are regression-checked on
// every push; CI then gives each target a 10 s `-fuzz` budget, and
// `go test -fuzz='^Fuzz...$' ./internal/wire/` explores further locally.

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"authdb/internal/chain"
	"authdb/internal/core"
	"authdb/internal/freshness"
	"authdb/internal/join"
	"authdb/internal/projection"
	"authdb/internal/sigagg"
)

// seedFrames returns valid wire encodings to anchor the corpora.
func seedFrames(t testing.TB) [][]byte {
	t.Helper()
	sys := system(t, 30)
	closeMsg, err := sys.DA.ClosePeriod(1_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Deliver(closeMsg); err != nil {
		t.Fatal(err)
	}
	ans, err := sys.QS.Query(50, 200)
	if err != nil {
		t.Fatal(err)
	}
	ansBytes := leafFrame(t, ans)
	sums := sys.QS.SummariesSince(0)
	// Two join sections: runs and Bloom negatives grouped per partition,
	// and (a BV join) runs alone, stating no filter time.
	comp := testComposite(t)
	compBytes, err := AppendCompositeCore(nil, comp)
	if err != nil {
		t.Fatal(err)
	}
	runsOnly := testComposite(t)
	runsOnly.Proj, runsOnly.Join.Method, runsOnly.Join.FilterTS, runsOnly.Join.Negatives = nil, join.BV, 0, nil
	runsBytes, err := AppendCompositeCore(nil, runsOnly)
	if err != nil {
		t.Fatal(err)
	}
	// Projection sections beside the one above: with no join after them,
	// and over an empty scan — slots and an aggregate, not one row.
	projOnly := testComposite(t)
	projOnly.Join = nil
	emptyProj := &Composite{
		Outer: &chain.Answer{Lo: 3, Hi: 4, Anchor: &chain.Record{RID: 1, Key: 2, TS: 3},
			AnchorLeft: chain.MinRef, Left: chain.MinRef, Right: chain.MaxRef, Agg: sigagg.Signature("a")},
		Proj:  &projection.Answer{AttrIdxs: []int{0, 2}, Agg: sigagg.Signature("p")},
		Tails: []RelTail{{Rel: "outer"}},
	}
	return [][]byte{
		ansBytes,
		AppendUpdateMsg(nil, closeMsg),
		AppendRelTails(compBytes, comp.Tails),
		AppendRelTails(runsBytes, runsOnly.Tails),
		compositeFrame(t, projOnly),
		compositeFrame(t, emptyProj),
		AppendBootstrap(nil, 42, sys.QS.Snapshot()),
		AppendBootstrap(nil, 7, imageStates(t)[1]), // projection-mode: the §3.4 sideband
		AppendBootstrap(nil, 9, imageStates(t)[2]), // a join inner: the §3.5 certified filter
		// A re-certification as it is logged and fed, and one whose flag
		// byte (the message's 26th, after its empty record lists) claims a
		// section the format does not have.
		AppendWalRecord(nil, 12, 15, AppendUpdateMsg(nil, &core.UpdateMsg{TS: 78, Filter: testFilterCert(t)})),
		func() []byte {
			bad := AppendUpdateMsg(nil, &core.UpdateMsg{TS: 78, Filter: testFilterCert(t)})
			bad[26] |= 0x40
			return bad
		}(),
		AppendWalRecord(nil, 11, 15, AppendUpdateMsg(nil, closeMsg)),
		AppendPlanReq(nil, []byte("plan-bytes"), []RelSince{{Name: "outer", SinceSeq: 7}, {Name: "inner"}}),
		AppendRelSumsReq(nil, "inner", 42, -1),
		AppendReplSubReq(nil, "inner", 12345),
		AppendSummaries(nil, sums),
		AppendSummaries(nil, []freshness.Summary{}),
		// Requests the decoder refuses on a count or a length alone: a
		// third summary position, a relation name no planner accepts.
		AppendPlanReq(nil, []byte("plan-bytes"), []RelSince{{Name: "a"}, {Name: "b", SinceSeq: 9}, {Name: "c"}}),
		AppendPlanReq(nil, []byte("p"), []RelSince{{Name: strings.Repeat("n", maxRelName+1), SinceSeq: 1 << 40}}),
		AppendRelSumsReq(nil, strings.Repeat("n", maxRelName+1), 0, 123),
		AppendReplSubReq(nil, strings.Repeat("n", maxRelName+1), 7),
		AppendReplSubReq(nil, "", 7),
		AppendErrorCode(nil, ErrCodeOverloaded, "overloaded"),
		AppendErrorCode(nil, ErrCodeGeneric, ""),
	}
}

// mutate adds systematic corruptions of each seed: single-bit flips at
// spread positions plus truncations, so the checked-in corpus already
// covers the classic torn/garbled-frame shapes.
func mutate(f *testing.F, seeds [][]byte) {
	for _, s := range seeds {
		f.Add(s)
		for i := 0; i < len(s); i += 1 + len(s)/16 {
			m := append([]byte(nil), s...)
			m[i] ^= 0x80
			f.Add(m)
		}
		for _, cut := range []int{0, 1, len(s) / 2, len(s) - 1} {
			if cut >= 0 && cut < len(s) {
				f.Add(append([]byte(nil), s[:cut]...))
			}
		}
	}
}

// FuzzReadFrame: framing must never panic and never allocate beyond the
// configured payload cap, whatever length the header claims.
func FuzzReadFrame(f *testing.F) {
	var framed [][]byte
	for _, s := range seedFrames(f) {
		var b bytes.Buffer
		if err := WriteFrame(&b, s); err != nil {
			f.Fatal(err)
		}
		framed = append(framed, b.Bytes())
	}
	// Hostile headers: oversized, maximal, zero, torn.
	framed = append(framed,
		[]byte{0xff, 0xff, 0xff, 0xff, 1},
		[]byte{0x00, 0x01, 0x00, 0x01},
		[]byte{0, 0, 0, 0},
		[]byte{0, 0},
	)
	mutate(f, framed)
	const max = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data), nil, max)
		if err != nil {
			return
		}
		if len(payload) > max || cap(payload) > max {
			t.Fatalf("frame allocation exceeded cap: len=%d cap=%d", len(payload), cap(payload))
		}
	})
}

// allocatedBy reports the heap bytes fn allocated. Fuzz inputs run one
// at a time, so nothing else allocates meanwhile.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkDecodeAlloc: the aliasing decoders size arrays by counts read from
// the input, so whatever the counts claim, a decode may allocate only a
// small multiple of the bytes actually present (the widest blow-up is a
// 24-byte slice header per 8-byte empty attribute). The fixed allowance
// covers what the fuzzing harness itself allocates around a call.
func checkDecodeAlloc(t *testing.T, data []byte, decode func()) {
	t.Helper()
	if got, max := allocatedBy(decode), uint64(8*len(data)+64<<10); got > max {
		t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, max)
	}
}

// chainViews lists the byte slices of a decoded chained answer that must
// alias its frame.
func chainViews(views [][]byte, ca *chain.Answer) [][]byte {
	recs := ca.Records
	if ca.Anchor != nil {
		recs = append(recs[:len(recs):len(recs)], ca.Anchor)
	}
	for _, rec := range recs {
		views = append(views, rec.Attrs...)
	}
	return append(views, ca.Agg)
}

// checkCustody scribbles over every byte of the frame an accepted decode
// was given: each view must change with it (it aliases the frame — a copy
// here is the per-record allocation the decoders exist to avoid), and no
// certified summary may (a session retains those, so they are copies).
func checkCustody(t *testing.T, data []byte, views [][]byte, sums []freshness.Summary) {
	t.Helper()
	was := make([][]byte, len(views))
	for i, v := range views {
		was[i] = bytes.Clone(v)
	}
	type kept struct{ compressed, sig []byte }
	held := make([]kept, len(sums))
	for i := range sums {
		held[i] = kept{bytes.Clone(sums[i].Compressed), bytes.Clone(sums[i].Sig)}
	}
	for i := range data {
		data[i] ^= 0xff
	}
	for i, v := range views {
		if len(v) > 0 && bytes.Equal(v, was[i]) {
			t.Fatalf("decoded field %d (%d bytes) is a copy, not a view of the frame", i, len(v))
		}
	}
	for i := range sums {
		if !bytes.Equal(sums[i].Compressed, held[i].compressed) || !bytes.Equal(sums[i].Sig, held[i].sig) {
			t.Fatalf("summary %d aliases the frame: a session holding it would pin the whole answer", sums[i].Seq)
		}
	}
}

// FuzzDecodeAnswer: the retired answer codec benchmark/ still compiles
// against (benchpin.go) against arbitrary bytes. An accepted frame is
// canonical (it re-encodes to the input), decoding allocates in
// proportion to the bytes present, and the result aliases the frame
// except for its summaries.
func FuzzDecodeAnswer(f *testing.F) {
	mutate(f, seedFrames(f))
	f.Fuzz(func(t *testing.T, in []byte) {
		data := bytes.Clone(in) // the decode takes the frame over; in is the fuzzer's
		var ans *core.Answer
		var err error
		checkDecodeAlloc(t, data, func() { ans, err = DecodeAnswer(data) })
		if err != nil {
			return
		}
		if ans == nil {
			t.Fatal("nil answer without error")
		}
		if re, err := AppendAnswer(nil, ans); err != nil || !bytes.Equal(re, data) {
			t.Fatalf("accepted frame does not re-encode to itself (err %v)", err)
		}
		checkCustody(t, data, chainViews(nil, ans.Chain), ans.Summaries)
	})
}

// FuzzDecodeUpdateMsg: the dissemination-stream decoder (what a QS
// applies) against arbitrary bytes.
func FuzzDecodeUpdateMsg(f *testing.F) {
	mutate(f, seedFrames(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeUpdateMsg(data)
		if err != nil {
			return
		}
		if msg == nil {
			t.Fatal("nil message without error")
		}
		// What decodes is canonical: the one encoder writes it back.
		if !bytes.Equal(AppendUpdateMsg(nil, msg), data) {
			t.Fatal("accepted message does not re-encode to itself")
		}
	})
}

// FuzzDecodeSummaries: the certified-summary batch decoder against
// arbitrary bytes.
func FuzzDecodeSummaries(f *testing.F) {
	mutate(f, seedFrames(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeSummaries(data)
	})
}

// FuzzDecodeRequests: the server-side request decoders plus the shared
// kind/error helpers — the bytes a hostile client controls.
func FuzzDecodeRequests(f *testing.F) {
	mutate(f, seedFrames(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		Kind(data)
		DecodeErrorCode(data)
		if rel, _, err := DecodeReplSubReq(data); err == nil && (rel == "" || len(rel) > maxRelName) {
			t.Fatalf("accepted a subscription to a %d-byte relation name", len(rel))
		}
		if rel, _, _, err := DecodeRelSumsReq(data); err == nil && len(rel) > maxRelName {
			t.Fatalf("accepted a %d-byte relation name", len(rel))
		}
		// A plan request may cost what its bytes cost, never what its counts
		// claim, and what is accepted names at most two relations the
		// planner could have named.
		var rels []RelSince
		var err error
		checkDecodeAlloc(t, data, func() { _, rels, err = DecodePlanReq(data, nil) })
		if err != nil {
			return
		}
		if len(rels) > maxPlanRels {
			t.Fatalf("accepted %d summary positions", len(rels))
		}
		for _, rs := range rels {
			if len(rs.Name) > maxRelName {
				t.Fatalf("accepted a %d-byte relation name", len(rs.Name))
			}
		}
	})
}

// FuzzDecodeComposite: the plan-answer decoder (what a client runs on a
// replica's 'C' frame) against arbitrary bytes: an accepted frame is
// canonical, decoding allocates in proportion to the bytes present, and
// the result aliases the frame except for its summaries.
func FuzzDecodeComposite(f *testing.F) {
	mutate(f, seedFrames(f))
	f.Fuzz(func(t *testing.T, in []byte) {
		data := bytes.Clone(in)
		var c *Composite
		var err error
		checkDecodeAlloc(t, data, func() { c, err = DecodeComposite(data) })
		if err != nil {
			return
		}
		if c == nil {
			t.Fatal("nil composite without error")
		}
		re, err := AppendCompositeCore(nil, c)
		if err != nil || !bytes.Equal(AppendRelTails(re, c.Tails), data) {
			t.Fatalf("accepted frame does not re-encode to itself (err %v)", err)
		}
		views := chainViews(nil, c.Outer)
		if c.Proj != nil {
			for i := range c.Proj.Rows {
				views = append(views, c.Proj.Rows[i].Values...)
			}
			views = append(views, c.Proj.Agg)
		}
		if c.Join != nil {
			for _, run := range c.Join.Runs {
				views = chainViews(views, run)
			}
			for i := range c.Join.Negatives {
				views = append(views, c.Join.Negatives[i].PartSig)
			}
		}
		var sums []freshness.Summary
		for _, tail := range c.Tails {
			sums = append(sums, tail.Summaries...)
		}
		checkCustody(t, data, views, sums)
	})
}

// FuzzDecodeBootstrap: the snapshot-image decoder (what a follower runs
// on a primary's 'B' frame) against arbitrary bytes.
func FuzzDecodeBootstrap(f *testing.F) {
	mutate(f, seedFrames(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		lsn, st, err := DecodeBootstrap(data)
		if err != nil {
			return
		}
		if st == nil {
			t.Fatal("nil state without error")
		}
		// What decodes is a state the one encoder can carry on: its
		// encoding decodes, to the same bytes again.
		enc := AppendBootstrap(nil, lsn, st)
		lsn2, st2, err := DecodeBootstrap(enc)
		if err != nil || lsn2 != lsn || !bytes.Equal(AppendBootstrap(nil, lsn2, st2), enc) {
			t.Fatalf("re-encoded image does not round-trip (err=%v)", err)
		}
	})
}

// FuzzDecodeWalRecord: the replication-stream decoder (a follower, on
// each 'W' frame) against arbitrary bytes.
func FuzzDecodeWalRecord(f *testing.F) {
	mutate(f, seedFrames(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, msg, err := DecodeWalRecord(data)
		if err == nil && msg == nil {
			t.Fatal("nil message without error")
		}
	})
}
