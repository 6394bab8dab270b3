package wire

import (
	"testing"

	"authdb/internal/chain"
	"authdb/internal/core"
	"authdb/internal/sigagg"
)

// TestKindsTable: no two rows of the table share a kind byte, and one
// encoded frame per kind reports exactly that kind — so the table, the
// constants and the codecs cannot drift apart.
func TestKindsTable(t *testing.T) {
	ans := &chain.Answer{Lo: 1, Hi: 2, Left: chain.MinRef, Right: chain.MaxRef, Agg: sigagg.Signature("a"),
		Records: []*chain.Record{{RID: 1, Key: 1, TS: 1}}}
	must := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	frames := map[byte][]byte{
		KindPlan:          AppendPlanReq(nil, []byte("p"), nil, 0),
		KindSummaries:     AppendSummaries(nil, nil),
		KindError:         AppendErrorCode(nil, ErrCodeGeneric, "x"),
		KindUpdate:        AppendUpdateMsg(nil, &core.UpdateMsg{TS: 1}),
		KindComposite:     must(AppendCompositeCore(nil, &Composite{Outer: ans})),
		KindRelSummaries:  AppendRelSumsReq(nil, "r", 0, 0),
		KindReplSubscribe: AppendReplSubReq(nil, "r", 0),
		KindReplBootstrap: AppendBootstrap(nil, 0, &core.ServerState{Binding: sigagg.Binding{Scheme: "xortest"}}),
		KindReplRecord:    AppendWalRecord(nil, 1, 1, AppendUpdateMsg(nil, &core.UpdateMsg{TS: 1})),
		KindReplHeartbeat: AppendReplHeartbeat(nil, 1),
	}
	seen := map[byte]bool{}
	for _, row := range Kinds {
		if seen[row.Kind] {
			t.Errorf("kind %q appears twice in the table", row.Kind)
		}
		seen[row.Kind] = true
		if row.From == "" || row.To == "" || row.Meaning == "" {
			t.Errorf("kind %q: incomplete row %+v", row.Kind, row)
		}
		frame, ok := frames[row.Kind]
		if !ok {
			t.Errorf("kind %q: no encoder exercised", row.Kind)
			continue
		}
		if got, err := Kind(frame); err != nil || got != row.Kind {
			t.Errorf("kind %q: encoded frame reports %q, %v", row.Kind, got, err)
		}
	}
	if len(seen) != len(frames) {
		t.Errorf("table has %d kinds, encoders cover %d", len(seen), len(frames))
	}
	// The protocol is these ten: one query request and one answer, the
	// summary fetch and its reply, the error, the owner's message, and the
	// four of the replication feed. A range answer is a composite too.
	const want = "PCTFEURBWH"
	var got []byte
	for _, row := range Kinds {
		got = append(got, row.Kind)
	}
	if string(got) != want {
		t.Errorf("frame kinds %q, want %q", got, want)
	}
	if k, err := Kind(must(AppendCompositeCore(nil, &Composite{Outer: ans}))); err != nil || k != KindComposite {
		t.Errorf("a range answer is framed %q, %v; want 'C'", k, err)
	}
}
