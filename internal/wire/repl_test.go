package wire

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"authdb/internal/chain"
	"authdb/internal/core"
	"authdb/internal/freshness"
	"authdb/internal/sigagg"
)

func TestReplSubReqRoundTrip(t *testing.T) {
	data := AppendReplSubReq(GetBuffer(), "items", 12345)
	defer PutBuffer(data)
	if k, err := Kind(data); err != nil || k != 'R' {
		t.Fatalf("kind=%q err=%v", k, err)
	}
	rel, after, err := DecodeReplSubReq(data)
	if err != nil || rel != "items" || after != 12345 {
		t.Fatalf("rel=%q after=%d err=%v", rel, after, err)
	}
	// A subscription names exactly one relation a planner could have
	// named, and nothing follows its LSN.
	for name, bad := range map[string][]byte{
		"truncated":      data[:len(data)-1],
		"trailing byte":  append(bytes.Clone(data), 0),
		"empty name":     AppendReplSubReq(nil, "", 12345),
		"over-long name": AppendReplSubReq(nil, strings.Repeat("n", maxRelName+1), 12345),
	} {
		if _, _, err := DecodeReplSubReq(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
}

// imageStates are the bootstrap inputs: an ordinary relation's image, a
// projection-mode one (§3.4: stripped chained records, attribute values
// and per-slot signatures in the sideband) bound to a parameter, a join
// inner's with its certified filter (§3.5), and the empty image.
func imageStates(t testing.TB) []*core.ServerState {
	sums := []freshness.Summary{
		{Seq: 1, PeriodStart: 0, TS: 50, Compressed: []byte{0x01}, Sig: sigagg.Signature("sum-sig")},
	}
	return []*core.ServerState{
		{
			Binding: sigagg.Binding{Scheme: "xortest"},
			Records: []core.SignedRecord{
				{Rec: &chain.Record{RID: 7, Key: 10, Attrs: [][]byte{{1}, {2}}, TS: 99}, Sig: sigagg.Signature("sig-a")},
				{Rec: &chain.Record{RID: 8, Key: 20, TS: 100}, Sig: sigagg.Signature("sig-b")},
			},
			Summaries: sums,
		},
		{
			Binding: sigagg.Binding{Scheme: "crsa", Param: []byte{0xC3, 0x01, 0x07}},
			Records: []core.SignedRecord{
				{Rec: &chain.Record{RID: 7, Key: 10, TS: 99}, Sig: sigagg.Signature("sig-a"),
					AttrVals: [][]byte{[]byte("name"), []byte("payload")},
					AttrSigs: []sigagg.Signature{sigagg.Signature("as-0"), sigagg.Signature("as-1")}},
				{Rec: &chain.Record{RID: 8, Key: 20, TS: 100}, Sig: sigagg.Signature("sig-b"),
					AttrVals: [][]byte{[]byte("n"), {}},
					AttrSigs: []sigagg.Signature{sigagg.Signature("as-2"), sigagg.Signature("as-3")}},
			},
			Summaries: sums,
		},
		{
			Binding:   sigagg.Binding{Scheme: "bas"},
			Records:   []core.SignedRecord{{Rec: &chain.Record{RID: 8, Key: 20, TS: 100}, Sig: sigagg.Signature("sig-b")}},
			Summaries: sums,
			Filter:    testFilterCert(t),
		},
		{Binding: sigagg.Binding{Scheme: "xortest"}},
	}
}

func TestBootstrapRoundTrip(t *testing.T) {
	for i, st := range imageStates(t) {
		data := AppendBootstrap(nil, 42, st)
		if k, err := Kind(data); err != nil || k != 'B' {
			t.Fatalf("state %d: kind=%q err=%v", i, k, err)
		}
		lsn, got, err := DecodeBootstrap(data)
		if err != nil {
			t.Fatalf("state %d: %v", i, err)
		}
		if lsn != 42 || !got.Binding.Equal(st.Binding) || len(got.Records) != len(st.Records) || len(got.Summaries) != len(st.Summaries) || !reflect.DeepEqual(got.Filter, st.Filter) {
			t.Fatalf("state %d: lsn=%d records=%d summaries=%d filter=%+v", i, lsn, len(got.Records), len(got.Summaries), got.Filter)
		}
		for j, sr := range st.Records {
			if len(got.Records[j].AttrVals) != len(sr.AttrVals) || len(got.Records[j].AttrSigs) != len(sr.AttrSigs) {
				t.Fatalf("state %d record %d: sideband %d values / %d signatures, want %d / %d", i, j,
					len(got.Records[j].AttrVals), len(got.Records[j].AttrSigs), len(sr.AttrVals), len(sr.AttrSigs))
			}
		}
		// Every other field through the re-encoding — after the frame has
		// been scribbled over: decoded state must not alias it (a reusable
		// read buffer outlives the decode).
		want := bytes.Clone(data)
		for j := range data {
			data[j] ^= 0xFF
		}
		if again := AppendBootstrap(nil, 42, got); !bytes.Equal(again, want) {
			t.Fatalf("state %d: decoded state re-encodes differently (or aliases the frame):\n%+v", i, got)
		}
		data = want
		for cut := 0; cut < len(data); cut++ {
			if _, _, err := DecodeBootstrap(data[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("state %d: truncation at %d: %v, want ErrCorrupt", i, cut, err)
			}
		}
		if _, _, err := DecodeBootstrap(append(data, 0)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("state %d: trailing byte: %v, want ErrCorrupt", i, err)
		}
	}
	// The image's record message is a state, not a delta.
	delta := AppendUpdateMsg(nil, &core.UpdateMsg{Deletes: []chain.Ref{{Key: 9, RID: 9}}})
	w := &writer{buf: AppendReplHeartbeat(nil, 42)} // a header and an LSN
	w.buf[1] = KindReplBootstrap
	w.bytes([]byte("xortest"))
	w.bytes(nil)
	w.bytes(delta)
	w.bytes(AppendSummaries(nil, nil))
	if _, _, err := DecodeBootstrap(w.buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("image with deletes: %v, want ErrCorrupt", err)
	}
	// An image binds a named scheme.
	for name, scheme := range map[string]string{"no scheme": "", "over-long scheme": strings.Repeat("s", maxSchemeName+1)} {
		data := AppendBootstrap(nil, 42, &core.ServerState{Binding: sigagg.Binding{Scheme: scheme}})
		if _, _, err := DecodeBootstrap(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("image with %s: %v, want ErrCorrupt", name, err)
		}
	}
}

func TestWalRecordRoundTrip(t *testing.T) {
	msg := &core.UpdateMsg{
		TS: 77,
		Upserts: []core.SignedRecord{
			{Rec: &chain.Record{RID: 1, Key: 5, TS: 77}, Sig: sigagg.Signature("s")},
		},
		Deletes: []chain.Ref{{Key: 9, RID: 4}},
		Summary: &freshness.Summary{Seq: 3, PeriodStart: 60, TS: 70, Compressed: []byte{0x02}, Sig: sigagg.Signature("z")},
	}
	msgData := AppendUpdateMsg(GetBuffer(), msg)
	data := AppendWalRecord(GetBuffer(), 11, 15, msgData)
	PutBuffer(msgData)
	defer PutBuffer(data)
	if k, err := Kind(data); err != nil || k != 'W' {
		t.Fatalf("kind=%q err=%v", k, err)
	}
	lsn, primary, got, err := DecodeWalRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 11 || primary != 15 {
		t.Fatalf("lsn=%d primary=%d", lsn, primary)
	}
	if got.TS != 77 || len(got.Upserts) != 1 || len(got.Deletes) != 1 || got.Deletes[0] != msg.Deletes[0] || got.Summary == nil || got.Summary.Seq != 3 {
		t.Fatalf("decoded msg mismatch: %+v", got)
	}
	// A garbled nested message must fail loudly, not decode partially.
	// Offset 26 is the nested UpdateMsg's version byte (2-byte header +
	// two u64 LSNs + the nested blob's u64 length prefix).
	bad := append([]byte(nil), data...)
	bad[26] ^= 0x01
	if _, _, _, err := DecodeWalRecord(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbled nested msg: %v, want ErrCorrupt", err)
	}
}

func TestReplHeartbeatRoundTrip(t *testing.T) {
	data := AppendReplHeartbeat(GetBuffer(), 1<<40)
	defer PutBuffer(data)
	if k, err := Kind(data); err != nil || k != 'H' {
		t.Fatalf("kind=%q err=%v", k, err)
	}
	lsn, err := DecodeReplHeartbeat(data)
	if err != nil || lsn != 1<<40 {
		t.Fatalf("lsn=%d err=%v", lsn, err)
	}
}
