package core

import (
	"errors"
	"fmt"
	"testing"

	"authdb/internal/freshness"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/sigagg/crsa"
)

func newSystem(t *testing.T, scheme sigagg.Scheme) *System {
	t.Helper()
	sys, err := NewSystem(scheme, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func mkRecords(n int, step int64) []*Record {
	recs := make([]*Record, n)
	for i := range recs {
		recs[i] = &Record{
			Key:   int64(i+1) * step,
			Attrs: [][]byte{[]byte(fmt.Sprintf("payload-%d", i))},
		}
	}
	return recs
}

func load(t *testing.T, sys *System, n int) {
	t.Helper()
	msg, err := sys.DA.Load(mkRecords(n, 10), 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Deliver(msg); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndQueryVerify(t *testing.T) {
	for _, sc := range []sigagg.Scheme{bas.New(0), crsa.New(1024)} {
		t.Run(sc.Name(), func(t *testing.T) {
			sys := newSystem(t, sc)
			load(t, sys, 100)
			ans, err := sys.QS.Query(250, 500)
			if err != nil {
				t.Fatal(err)
			}
			if len(ans.Chain.Records) != 26 {
				t.Fatalf("got %d records, want 26", len(ans.Chain.Records))
			}
			if _, err := sys.Verifier.VerifyAnswer(ans, 250, 500, 200); err != nil {
				t.Fatalf("VerifyAnswer: %v", err)
			}
		})
	}
}

func TestUpdateFlow(t *testing.T) {
	sys := newSystem(t, bas.New(0))
	load(t, sys, 50)
	msg, err := sys.DA.Update(200, [][]byte{[]byte("v2")}, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Upserts) != 1 {
		t.Fatalf("update produced %d upserts, want 1", len(msg.Upserts))
	}
	if err := sys.Deliver(msg); err != nil {
		t.Fatal(err)
	}
	ans, err := sys.QS.Query(200, 200)
	if err != nil {
		t.Fatal(err)
	}
	if string(ans.Chain.Records[0].Attrs[0]) != "v2" {
		t.Fatal("server did not store the new version")
	}
	if _, err := sys.Verifier.VerifyAnswer(ans, 200, 200, 160); err != nil {
		t.Fatalf("verify after update: %v", err)
	}
}

func TestInsertResignsNeighbours(t *testing.T) {
	sys := newSystem(t, bas.New(0))
	load(t, sys, 10)
	msg, err := sys.DA.Insert(&Record{Key: 55, Attrs: [][]byte{[]byte("new")}}, 150)
	if err != nil {
		t.Fatal(err)
	}
	// New record + both neighbours (50 and 60) re-signed.
	if len(msg.Upserts) != 3 {
		t.Fatalf("insert produced %d upserts, want 3", len(msg.Upserts))
	}
	if err := sys.Deliver(msg); err != nil {
		t.Fatal(err)
	}
	ans, err := sys.QS.Query(40, 70)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Chain.Records) != 4 { // 40, 50, 55, 60, 70? range [40,70] -> 40,50,55,60,70 = 5
		if len(ans.Chain.Records) != 5 {
			t.Fatalf("got %d records", len(ans.Chain.Records))
		}
	}
	if _, err := sys.Verifier.VerifyAnswer(ans, 40, 70, 160); err != nil {
		t.Fatalf("verify after insert: %v", err)
	}
}

func TestDeleteResignsNeighbours(t *testing.T) {
	sys := newSystem(t, bas.New(0))
	load(t, sys, 10)
	msg, err := sys.DA.Delete(50, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Deletes) != 1 || len(msg.Upserts) != 2 {
		t.Fatalf("delete produced %d deletes, %d upserts", len(msg.Deletes), len(msg.Upserts))
	}
	if err := sys.Deliver(msg); err != nil {
		t.Fatal(err)
	}
	// The deleted record's range now verifies as empty.
	ans, err := sys.QS.Query(45, 55)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Chain.Records) != 0 || ans.Chain.Anchor == nil {
		t.Fatal("expected anchored empty answer")
	}
	if _, err := sys.Verifier.VerifyAnswer(ans, 45, 55, 160); err != nil {
		t.Fatalf("verify after delete: %v", err)
	}
}

func TestEmptyAnswerBelowDomain(t *testing.T) {
	sys := newSystem(t, bas.New(0))
	load(t, sys, 5)
	ans, err := sys.QS.Query(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Chain.Anchor == nil || ans.Chain.Anchor.Key != 10 {
		t.Fatalf("anchor = %+v, want first record", ans.Chain.Anchor)
	}
	if _, err := sys.Verifier.VerifyAnswer(ans, 1, 5, 120); err != nil {
		t.Fatal(err)
	}
}

func TestFreshnessStaleDetection(t *testing.T) {
	sys := newSystem(t, bas.New(0))
	load(t, sys, 20)

	// Close period 1 (covers the load).
	msg, err := sys.DA.ClosePeriod(1_100)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Deliver(msg); err != nil {
		t.Fatal(err)
	}
	// Capture a stale answer before the update.
	staleAns, err := sys.QS.Query(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Update record 100 in period 2 and close it.
	upd, err := sys.DA.Update(100, [][]byte{[]byte("v2")}, 1_500)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Deliver(upd); err != nil {
		t.Fatal(err)
	}
	msg2, err := sys.DA.ClosePeriod(2_100)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Deliver(msg2); err != nil {
		t.Fatal(err)
	}
	// Pre-feed the verifier both summaries (a logged-in user).
	for _, s := range sys.QS.SummariesSince(0) {
		if err := sys.Verifier.IngestSummary(s); err != nil {
			t.Fatal(err)
		}
	}
	// The stale answer must now be rejected.
	if _, err := sys.Verifier.VerifyAnswer(staleAns, 100, 100, 2_200); !errors.Is(err, freshness.ErrStale) {
		t.Fatalf("stale answer: want ErrStale, got %v", err)
	}
	// A fresh answer passes.
	fresh, err := sys.QS.Query(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Verifier.VerifyAnswer(fresh, 100, 100, 2_200); err != nil {
		t.Fatalf("fresh answer rejected: %v", err)
	}
}

func TestAnswerCarriesNeededSummaries(t *testing.T) {
	sys := newSystem(t, bas.New(0))
	load(t, sys, 10)
	for ts := int64(2_000); ts <= 5_000; ts += 1_000 {
		msg, err := sys.DA.ClosePeriod(ts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Deliver(msg); err != nil {
			t.Fatal(err)
		}
	}
	ans, err := sys.QS.Query(10, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Records signed at t=100; all four summaries are needed and attached.
	if len(ans.Summaries) != 4 {
		t.Fatalf("answer carries %d summaries, want 4", len(ans.Summaries))
	}
	// A fresh verifier can check the answer with no prior state.
	if _, err := sys.Verifier.VerifyAnswer(ans, 10, 50, 5_200); err != nil {
		t.Fatal(err)
	}
}

func TestMultiUpdateRecertification(t *testing.T) {
	sys := newSystem(t, bas.New(0))
	load(t, sys, 10)
	deliver := func(msg *UpdateMsg, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Deliver(msg); err != nil {
			t.Fatal(err)
		}
	}
	deliver(sys.DA.ClosePeriod(1_000))
	// Two updates to key 30 inside period 2.
	deliver(sys.DA.Update(30, [][]byte{[]byte("v2")}, 1_200))
	deliver(sys.DA.Update(30, [][]byte{[]byte("v3")}, 1_700))
	// Closing period 2 re-certifies key 30 at the close's TS, which opens
	// period 3.
	msg, err := sys.DA.ClosePeriod(2_000)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sr := range msg.Upserts {
		if sr.Rec.Key == 30 {
			found = true
			if sr.Rec.TS != 2_000 {
				t.Fatalf("re-certified ts = %d", sr.Rec.TS)
			}
		}
	}
	if !found {
		t.Fatal("multi-updated record not re-certified as the next period opened")
	}
}

func TestActiveRenewal(t *testing.T) {
	sys := newSystem(t, bas.New(0))
	load(t, sys, 30)
	now := int64(100 + sys.DA.cfg.RhoPrime + 1_000)
	msg, renewed, err := sys.DA.RenewOld(now, 10)
	if err != nil {
		t.Fatal(err)
	}
	if renewed != 10 || len(msg.Upserts) != 10 {
		t.Fatalf("renewed %d records, want 10", renewed)
	}
	// Renewed records carry the new certification time.
	for _, sr := range msg.Upserts {
		if sr.Rec.TS != now {
			t.Fatalf("renewed record has ts %d", sr.Rec.TS)
		}
	}
	// Nothing to renew right after.
	sys.Deliver(msg)
	_, renewed2, _ := sys.DA.RenewOld(now, 10)
	if renewed2 != 10 { // 20 remaining old records, budget 10
		t.Fatalf("second renewal = %d, want 10", renewed2)
	}
	_, renewed3, _ := sys.DA.RenewOld(now, 100)
	if renewed3 != 10 { // only 10 old records left
		t.Fatalf("third renewal = %d, want 10", renewed3)
	}
}

func TestTamperedAnswerRejected(t *testing.T) {
	sys := newSystem(t, bas.New(0))
	load(t, sys, 30)
	ans, _ := sys.QS.Query(50, 250)
	ans.Chain.Records[2] = &Record{
		RID: ans.Chain.Records[2].RID, Key: ans.Chain.Records[2].Key,
		Attrs: [][]byte{[]byte("forged")}, TS: ans.Chain.Records[2].TS,
	}
	if _, err := sys.Verifier.VerifyAnswer(ans, 50, 250, 200); err == nil {
		t.Fatal("tampered answer accepted")
	}
}

func TestWrongRangeRejected(t *testing.T) {
	sys := newSystem(t, bas.New(0))
	load(t, sys, 10)
	ans, _ := sys.QS.Query(10, 30)
	if _, err := sys.Verifier.VerifyAnswer(ans, 10, 50, 200); err == nil {
		t.Fatal("answer for a different range accepted")
	}
}

func TestLoadRejectsDuplicateKeys(t *testing.T) {
	sys := newSystem(t, bas.New(0))
	recs := []*Record{{Key: 5}, {Key: 5}}
	if _, err := sys.DA.Load(recs, 1); err == nil {
		t.Fatal("duplicate keys accepted")
	}
}

func TestDAErrors(t *testing.T) {
	sys := newSystem(t, bas.New(0))
	load(t, sys, 3)
	if _, err := sys.DA.Update(999, nil, 10); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("want ErrUnknownKey, got %v", err)
	}
	if _, err := sys.DA.Delete(999, 10); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("want ErrUnknownKey, got %v", err)
	}
	if _, err := sys.DA.Insert(&Record{Key: 10}, 10); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if _, err := sys.QS.Query(5, 1); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestVOSizeIndependentOfCardinality(t *testing.T) {
	sys := newSystem(t, bas.New(0))
	load(t, sys, 200)
	small, _ := sys.QS.Query(10, 20)
	large, _ := sys.QS.Query(10, 2000)
	sigSize := sys.Scheme.SignatureSize()
	if small.VOSize(sigSize) != large.VOSize(sigSize) {
		t.Fatalf("VO sizes %d vs %d: §3.3 promises cardinality independence",
			small.VOSize(sigSize), large.VOSize(sigSize))
	}
}
