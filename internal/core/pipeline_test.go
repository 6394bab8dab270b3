package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"authdb/internal/chain"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/sigagg/crsa"
	"authdb/internal/sigagg/xortest"
)

// newParties keys one scheme and builds a DA (with the given options),
// QS and Verifier around it.
func newParties(t *testing.T, raw sigagg.Scheme, opts ...DAOption) (*DataAggregator, *QueryServer, *Verifier) {
	t.Helper()
	priv, pub, err := raw.KeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := sigagg.Bind(raw, pub)
	if err != nil {
		t.Fatal(err)
	}
	da, err := NewDataAggregator(bound, priv, DefaultConfig(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return da, NewQueryServer(bound), NewVerifier(bound, pub, DefaultConfig())
}

// TestPipelinedLoadMatchesSerial: every signature a load emits through
// the pool is the scheme's one-shot Sign of the record's chained digest,
// on every deterministic scheme — the load's batch signing changes no
// byte. (TestOwnerMessagesGolden pins every operation's bytes on bas.)
func TestPipelinedLoadMatchesSerial(t *testing.T) {
	for _, raw := range []sigagg.Scheme{bas.New(0), crsa.New(1024), xortest.New()} {
		t.Run(raw.Name(), func(t *testing.T) {
			priv, pub, err := raw.KeyGen(nil)
			if err != nil {
				t.Fatal(err)
			}
			bound, err := sigagg.Bind(raw, pub)
			if err != nil {
				t.Fatal(err)
			}
			da, err := NewDataAggregator(bound, priv, DefaultConfig(), WithSigningPool(sigagg.NewPool(bound, 4)))
			if err != nil {
				t.Fatal(err)
			}
			msg, err := da.Load(mkRecords(200, 10), 100)
			if err != nil {
				t.Fatal(err)
			}
			if len(msg.Upserts) != 200 {
				t.Fatalf("%d upserts, want 200", len(msg.Upserts))
			}
			for i, up := range msg.Upserts {
				if up.Rec.Key != int64(i+1)*10 || up.Rec.RID != uint64(i+1) || up.Rec.TS != 100 {
					t.Fatalf("upsert %d: record %+v", i, up.Rec)
				}
				left, right := chain.MinRef, chain.MaxRef
				if i > 0 {
					left = msg.Upserts[i-1].Rec.Ref()
				}
				if i+1 < len(msg.Upserts) {
					right = msg.Upserts[i+1].Rec.Ref()
				}
				want, err := bound.Sign(priv, recordDigest(up.Rec, left, right))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(up.Sig, want) {
					t.Fatalf("upsert %d: signature differs from the one-shot Sign", i)
				}
			}
		})
	}
}

// TestPipelinedLoadVerifies: a pipelined load round-trips end to end
// through server and verifier.
func TestPipelinedLoadVerifies(t *testing.T) {
	da, qs, v := newParties(t, bas.New(0))
	msg, err := da.Load(mkRecords(300, 10), 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := qs.Apply(msg); err != nil {
		t.Fatal(err)
	}
	ans, err := scan(qs, 10, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Chain.Records) != 300 {
		t.Fatalf("got %d records", len(ans.Chain.Records))
	}
	if _, err := verifyScan(v, ans, 10, 3000, 200); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedLoadIntoPopulatedRelation: a second load must stitch
// into the existing chain — new records signed against their true
// neighbours, adjacent existing records re-signed — so that answers
// spanning the seam verify. (The seed chained such batches against
// batch-internal sentinels, which could never verify.)
func TestPipelinedLoadIntoPopulatedRelation(t *testing.T) {
	da, qs, v := newParties(t, xortest.New())
	msg1, err := da.Load(mkRecords(50, 10), 100) // keys 10..500
	if err != nil {
		t.Fatal(err)
	}
	if err := qs.Apply(msg1); err != nil {
		t.Fatal(err)
	}
	// A batch interleaving with the seam: keys 1010..1300 plus 255
	// (between existing 250 and 260).
	recs := []*Record{{Key: 255, Attrs: [][]byte{[]byte("mid")}}}
	for i := 0; i < 30; i++ {
		recs = append(recs, &Record{Key: 1000 + int64(i+1)*10, Attrs: [][]byte{[]byte("b")}})
	}
	msg2, err := da.Load(recs, 150)
	if err != nil {
		t.Fatal(err)
	}
	// 31 new + 3 re-signed existing neighbours (250, 260, 500).
	if len(msg2.Upserts) != 34 {
		t.Fatalf("merge load produced %d upserts, want 34", len(msg2.Upserts))
	}
	if err := qs.Apply(msg2); err != nil {
		t.Fatal(err)
	}
	// Ranges spanning every seam must verify.
	for _, r := range []span{{Lo: 240, Hi: 270}, {Lo: 450, Hi: 1100}, {Lo: 1010, Hi: 1300}} {
		ans, err := scan(qs, r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := verifyScan(v, ans, r.Lo, r.Hi, 200); err != nil {
			t.Fatalf("range [%d,%d]: %v", r.Lo, r.Hi, err)
		}
	}
	// Colliding keys are rejected.
	if _, err := da.Load([]*Record{{Key: 255}}, 200); err == nil {
		t.Fatal("load of an existing key accepted")
	}
}

// TestOldestCertTSIncremental: the heap-backed minimum must track the
// brute-force answer through loads, updates, renewals and deletes.
func TestOldestCertTSIncremental(t *testing.T) {
	da, qs, _ := newParties(t, xortest.New())
	bruteForce := func() int64 {
		oldest := int64(-1)
		for _, rec := range da.bySlot {
			if rec == nil {
				continue
			}
			if oldest == -1 || rec.TS < oldest {
				oldest = rec.TS
			}
		}
		return oldest
	}
	check := func(stage string) {
		t.Helper()
		if got, want := da.OldestCertTS(), bruteForce(); got != want {
			t.Fatalf("%s: OldestCertTS = %d, brute force = %d", stage, got, want)
		}
	}
	if da.OldestCertTS() != -1 {
		t.Fatal("empty relation should report -1")
	}
	msg, err := da.Load(mkRecords(40, 10), 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := qs.Apply(msg); err != nil {
		t.Fatal(err)
	}
	check("after load")
	for i := 0; i < 10; i++ {
		if _, err := da.Update(int64(i+1)*10, [][]byte{[]byte("v2")}, int64(200+i)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after update %d", i))
	}
	// Deleting the oldest records moves the minimum forward.
	for i := 10; i < 20; i++ {
		if _, err := da.Delete(int64(i+1)*10, 500); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after delete %d", i))
	}
	// Renewal rewrites the oldest timestamps.
	now := int64(100 + da.cfg.RhoPrime + 1000)
	if _, _, err := da.RenewOld(now, 15); err != nil {
		t.Fatal(err)
	}
	check("after renewal")
}

// TestRenewOldSparseRIDSpace: with most rids deleted, renewal must
// still find the old records without scanning the holes — every call
// with budget b renews min(b, old records remaining).
func TestRenewOldSparseRIDSpace(t *testing.T) {
	da, qs, _ := newParties(t, xortest.New())
	msg, err := da.Load(mkRecords(1000, 10), 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := qs.Apply(msg); err != nil {
		t.Fatal(err)
	}
	// Delete 990 of 1000 records: the rid space is now 99% holes.
	for i := 0; i < 990; i++ {
		if _, err := da.Delete(int64(i+1)*10, 150); err != nil {
			t.Fatal(err)
		}
	}
	now := int64(100 + da.cfg.RhoPrime + 1000)
	_, renewed, err := da.RenewOld(now, 7)
	if err != nil {
		t.Fatal(err)
	}
	if renewed != 7 {
		t.Fatalf("renewed %d, want 7 (cursor must skip deleted rids)", renewed)
	}
	_, renewed, err = da.RenewOld(now, 100)
	if err != nil {
		t.Fatal(err)
	}
	if renewed != 3 {
		t.Fatalf("second pass renewed %d, want the remaining 3", renewed)
	}
	_, renewed, err = da.RenewOld(now, 100)
	if err != nil {
		t.Fatal(err)
	}
	if renewed != 0 {
		t.Fatalf("third pass renewed %d, want 0", renewed)
	}
}

// TestRenewOldOldestFirst: the age-ordered structure renews strictly
// oldest-first.
func TestRenewOldOldestFirst(t *testing.T) {
	da, qs, _ := newParties(t, xortest.New())
	msg, err := da.Load(mkRecords(30, 10), 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := qs.Apply(msg); err != nil {
		t.Fatal(err)
	}
	// Touch 20 records at a later time; the 10 untouched stay oldest.
	for i := 10; i < 30; i++ {
		if _, err := da.Update(int64(i+1)*10, [][]byte{[]byte("v2")}, 5000); err != nil {
			t.Fatal(err)
		}
	}
	now := int64(5000 + da.cfg.RhoPrime + 1)
	renewMsg, renewed, err := da.RenewOld(now, 10)
	if err != nil {
		t.Fatal(err)
	}
	if renewed != 10 {
		t.Fatalf("renewed %d, want the 10 records certified at t=100", renewed)
	}
	for _, sr := range renewMsg.Upserts {
		if sr.Rec.Key > 100 {
			t.Fatalf("renewed key %d, which was freshly certified at t=5000", sr.Rec.Key)
		}
	}
}

// TestRenewOldNoDuplicateRenewals: re-certifying a record at its
// existing timestamp (an insert re-signing its neighbour within the
// same tick) must not leave duplicate live heap entries that would make
// one renewal budget renew the same record twice.
func TestRenewOldNoDuplicateRenewals(t *testing.T) {
	da, _, _ := newParties(t, xortest.New())
	if _, err := da.Insert(&Record{Key: 100, Attrs: [][]byte{[]byte("a")}}, 1); err != nil {
		t.Fatal(err)
	}
	// Re-signs key 100 (its neighbour) at the same ts=1.
	if _, err := da.Insert(&Record{Key: 200, Attrs: [][]byte{[]byte("b")}}, 1); err != nil {
		t.Fatal(err)
	}
	now := int64(1 + da.cfg.RhoPrime + 1_000_000)
	msg, renewed, err := da.RenewOld(now, 10)
	if err != nil {
		t.Fatal(err)
	}
	if renewed != 2 || len(msg.Upserts) != 2 {
		t.Fatalf("renewed %d (%d upserts), want exactly the 2 live records", renewed, len(msg.Upserts))
	}
	seen := map[uint64]bool{}
	for _, sr := range msg.Upserts {
		if seen[sr.Rec.RID] {
			t.Fatalf("rid %d renewed twice in one batch", sr.Rec.RID)
		}
		seen[sr.Rec.RID] = true
	}
}

// TestClosePeriodBatchRecertification: the multi-update rule flows
// through the batch resign path and stays verifiable.
func TestClosePeriodBatchRecertification(t *testing.T) {
	da, qs, v := newParties(t, bas.New(0))
	deliver := func(msg *UpdateMsg, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := qs.Apply(msg); err != nil {
			t.Fatal(err)
		}
	}
	deliver(da.Load(mkRecords(20, 10), 100))
	deliver(da.ClosePeriod(1000))
	// Three records updated twice each within period 2.
	for _, key := range []int64{30, 70, 110} {
		deliver(da.Update(key, [][]byte{[]byte("v2")}, 1200))
		deliver(da.Update(key, [][]byte{[]byte("v3")}, 1400))
	}
	msg, err := da.ClosePeriod(2000)
	if err != nil {
		t.Fatal(err)
	}
	recert := map[int64]bool{}
	for _, sr := range msg.Upserts {
		recert[sr.Rec.Key] = true
		if sr.Rec.TS != 2000 {
			t.Fatalf("re-certified record has ts %d", sr.Rec.TS)
		}
	}
	for _, key := range []int64{30, 70, 110} {
		if !recert[key] {
			t.Fatalf("key %d not re-certified", key)
		}
	}
	deliver(msg, nil)
	ans, err := scan(qs, 10, 200)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifyScan(v, ans, 10, 200, 2100); err != nil {
		t.Fatal(err)
	}
}

// TestStampBeforeOpenPeriodRefused: after a close at 1000, a version
// stamped 500 would belong to the closed period while its slot's mark
// lands in the open one, and every client would refuse it as stale. A
// load, an insert, an update, a delete and a renewal stamped before the
// open period are refused before anything is signed, and the owner goes
// on as if it had never seen them; a stamp at the close's own TS is the
// open period's.
func TestStampBeforeOpenPeriodRefused(t *testing.T) {
	da, qs, v := newParties(t, xortest.New())
	twin, _, _ := newParties(t, xortest.New()) // every accepted message, through ReplayMsg
	deliver := func(msg *UpdateMsg, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := qs.Apply(msg); err != nil {
			t.Fatal(err)
		}
		if err := twin.ReplayMsg(msg); err != nil {
			t.Fatal(err)
		}
	}
	deliver(da.Load(mkRecords(20, 10), 100))
	deliver(da.ClosePeriod(1000))
	for name, op := range map[string]func() error{
		"load":   func() error { _, err := da.Load([]*Record{{Key: 15}, {Key: 25}}, 500); return err },
		"insert": func() error { _, err := da.Insert(&Record{Key: 35}, 999); return err },
		"update": func() error { _, err := da.Update(30, [][]byte{[]byte("never-sent")}, 500); return err },
		"delete": func() error { _, err := da.Delete(30, 500); return err },
		"renew":  func() error { _, _, err := da.RenewOld(500, 10); return err },
	} {
		if err := op(); err == nil {
			t.Fatalf("%s stamped before the open period's start accepted", name)
		}
	}
	if field, got, want := ownerDiff(da, twin); field != "" {
		t.Fatalf("refused stamps moved the owner's %s to %+v from %+v", field, got, want)
	}
	deliver(da.Update(30, [][]byte{[]byte("v2")}, 1000))
	deliver(da.ClosePeriod(2000))
	ans, err := scan(qs, 10, 200)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifyScan(v, ans, 10, 200, 2100); err != nil {
		t.Fatal(err)
	}
}

// slotsHeld counts the owner's occupied slots: the record bodies it holds.
func slotsHeld(da *DataAggregator) int {
	n := 0
	for _, rec := range da.bySlot {
		if rec != nil {
			n++
		}
	}
	return n
}

// TestInsertExplicitRIDAdvancesNextRID: a record inserted with its own
// rid moves the allocator past it, so the next numbered record does not
// take the same rid and overwrite the first one's body.
func TestInsertExplicitRIDAdvancesNextRID(t *testing.T) {
	da, qs, v := newParties(t, xortest.New())
	for _, rec := range []*Record{{Key: 10, RID: 1}, {Key: 20}} {
		msg, err := da.Insert(rec, 100)
		if err != nil {
			t.Fatal(err)
		}
		if err := qs.Apply(msg); err != nil {
			t.Fatal(err)
		}
	}
	if da.Len() != 2 || slotsHeld(da) != 2 {
		t.Fatalf("index holds %d keys, bySlot %d records", da.Len(), slotsHeld(da))
	}
	if rid := da.held(2); rid == nil || rid.Key != 20 {
		t.Fatalf("numbered record got rid %+v, want 2", rid)
	}
	ans, err := scan(qs, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifyScan(v, ans, 0, 30, 100); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRefusesHeldRID: an explicit rid another key already holds is
// refused before anything is signed or stored.
func TestLoadRefusesHeldRID(t *testing.T) {
	da, _, _ := newParties(t, xortest.New())
	if _, err := da.Load(mkRecords(5, 10), 100); err != nil {
		t.Fatal(err)
	}
	if _, err := da.Insert(&Record{Key: 15, RID: 3}, 200); err == nil {
		t.Fatal("insert with rid 3, held by key 30, accepted")
	}
	if _, err := da.Load([]*Record{{Key: 1}, {Key: 2, RID: 5}}, 200); err == nil {
		t.Fatal("load with rid 5, held by key 50, accepted")
	}
	if da.Len() != 5 || da.nextRID != 5 || da.held(3).Key != 30 {
		t.Fatalf("refused loads changed the relation: %d keys, next rid %d", da.Len(), da.nextRID)
	}
}

// TestLoadRefusesRepeatedRID: one explicit rid given to two records of a
// batch is refused.
func TestLoadRefusesRepeatedRID(t *testing.T) {
	da, _, _ := newParties(t, xortest.New())
	if _, err := da.Load([]*Record{{Key: 10, RID: 7}, {Key: 20}, {Key: 30, RID: 7}}, 100); err == nil {
		t.Fatal("load repeating rid 7 accepted")
	}
	if da.Len() != 0 || da.nextRID != 0 {
		t.Fatalf("refused load changed the relation: %d keys, next rid %d", da.Len(), da.nextRID)
	}
}

// TestLoadRefusesRIDPastMaxInt32: a rid is its record's slot in the
// period summaries, so a batch holding a rid past math.MaxInt32 — given,
// or numbered past one given — is refused before anything is signed, and
// the owner goes on exactly as if it had never seen the batch.
func TestLoadRefusesRIDPastMaxInt32(t *testing.T) {
	raw := xortest.New()
	priv, _, err := raw.KeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded := func() *DataAggregator {
		da, err := NewDataAggregator(raw, priv, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := da.Load(mkRecords(5, 10), 100); err != nil {
			t.Fatal(err)
		}
		return da
	}
	da, twin := loaded(), loaded()
	for _, batch := range [][]*Record{
		{{Key: 1}, {Key: 2, RID: 1 << 63}},
		{{Key: 1, RID: math.MaxInt32 + 1}},
		{{Key: 1, RID: math.MaxInt32}, {Key: 2}},
	} {
		if _, err := da.Load(batch, 200); err == nil {
			t.Fatalf("load of %d records, the last with rid %d, accepted", len(batch), batch[len(batch)-1].RID)
		}
	}
	if da.Len() != twin.Len() || slotsHeld(da) != slotsHeld(twin) || da.nextRID != twin.nextRID {
		t.Fatalf("refused loads left %d keys, %d records, next rid %d; want %d, %d, %d",
			da.Len(), slotsHeld(da), da.nextRID, twin.Len(), slotsHeld(twin), twin.nextRID)
	}
	var sums [2][]byte
	for i, d := range []*DataAggregator{da, twin} {
		h := sha256.New()
		ins, err := d.Insert(&Record{Key: 1}, 300)
		if err != nil {
			t.Fatal(err)
		}
		hashMsg(h, ins)
		closed, err := d.ClosePeriod(400)
		if err != nil {
			t.Fatal(err)
		}
		hashMsg(h, closed)
		sums[i] = h.Sum(nil)
	}
	if !bytes.Equal(sums[0], sums[1]) {
		t.Fatal("after refused loads the owner's next messages differ from an owner that never saw them")
	}
}
