package core

import (
	"bytes"
	"reflect"
	"testing"

	"authdb/internal/anscache"
	"authdb/internal/btree"
	"authdb/internal/sigagg/xortest"
)

// TestOwnerSnapshotRestoreRoundtrip: a restored owner is operationally
// identical to the original — same certified image, same follow-on
// signatures.
func TestOwnerSnapshotRestoreRoundtrip(t *testing.T) {
	sys := newSystem(t, xortest.New())
	load(t, sys, 64)
	for i := 0; i < 10; i++ {
		msg, err := sys.DA.Update(int64(i+1)*10, [][]byte{[]byte("u")}, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.QS.Apply(msg); err != nil {
			t.Fatal(err)
		}
	}
	msg, err := sys.DA.ClosePeriod(200)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.QS.Apply(msg); err != nil {
		t.Fatal(err)
	}

	st := sys.DA.SnapshotMeta()
	st.Records = sys.QS.Snapshot().Records
	da2, err := NewDataAggregator(sys.Scheme, sys.DA.priv, sys.DA.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := da2.Restore(st); err != nil {
		t.Fatal(err)
	}
	var idx1, idx2 []btree.Entry
	for _, p := range []struct {
		da  *DataAggregator
		out *[]btree.Entry
	}{{sys.DA, &idx1}, {da2, &idx2}} {
		p.da.index.Scan(func(e btree.Entry) bool {
			*p.out = append(*p.out, e)
			return true
		})
	}
	if len(idx1) != len(idx2) {
		t.Fatalf("restored %d records, want %d", len(idx2), len(idx1))
	}
	for i := range idx1 {
		if idx1[i].Key != idx2[i].Key || idx1[i].RID != idx2[i].RID || !bytes.Equal(idx1[i].Sig, idx2[i].Sig) {
			t.Fatalf("index entry %d differs after restore", i)
		}
		if !reflect.DeepEqual(sys.DA.byRID[idx1[i].RID], da2.byRID[idx2[i].RID]) {
			t.Fatalf("record body %d differs after restore", i)
		}
	}
	if got, want := da2.OldestCertTS(), sys.DA.OldestCertTS(); got != want {
		t.Fatalf("restored oldest certTS %d, want %d", got, want)
	}
	// Both owners must sign the next operation identically.
	ma, err := sys.DA.Update(50, [][]byte{[]byte("next")}, 300)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := da2.Update(50, [][]byte{[]byte("next")}, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ma.Upserts[0].Sig, mb.Upserts[0].Sig) {
		t.Fatal("restored owner signs differently")
	}
}

// TestDeletedSlotMarkSurvivesRecovery: the period close that marks a
// deleted record's slot again, as the first mark of the period after the
// record's last certification, reaches the same state live, replayed from
// the log, and after a snapshot restore: the same summary,
// re-certifications and period marks. The schedule holds both kinds of
// deleted multi-updated slot: one inserted and deleted in one period
// (marked by the close that ends it), and one a close re-certified and
// the next period deleted (marked by the close after).
func TestDeletedSlotMarkSurvivesRecovery(t *testing.T) {
	sys := newSystem(t, xortest.New())
	live := sys.DA
	var log []*UpdateMsg
	do := func(msg *UpdateMsg, err error) {
		t.Helper()
		if err == nil {
			err = sys.Deliver(msg)
		}
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, msg)
	}
	fresh := func() *DataAggregator {
		da, err := NewDataAggregator(sys.Scheme, live.priv, live.cfg)
		if err != nil {
			t.Fatal(err)
		}
		return da
	}
	replay := func(da *DataAggregator, msgs []*UpdateMsg) {
		for _, m := range msgs {
			if err := da.ReplayMsg(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	same := func(what string, a, b *DataAggregator) {
		t.Helper()
		if !reflect.DeepEqual(a.pub.State(), b.pub.State()) {
			t.Fatalf("%s: marks %+v, live %+v", what, b.pub.State(), a.pub.State())
		}
	}

	do(live.Load(mkRecords(20, 10), 100))
	do(live.ClosePeriod(1_000))
	do(live.Insert(&Record{Key: 55}, 1_100))
	do(live.Delete(55, 1_200))
	do(live.Update(100, [][]byte{[]byte("a")}, 1_300))
	do(live.Update(100, [][]byte{[]byte("b")}, 1_400))
	do(live.ClosePeriod(2_000))
	do(live.Delete(100, 2_100))
	st := live.SnapshotMeta()
	st.Records = sys.QS.Snapshot().Records
	if deleted := slot(log[2].Upserts[0].Rec.RID); st.Pub.Touched[deleted] != 1 {
		t.Fatalf("fixture: the deleted record's slot %d is not marked once: %v", deleted, st.Pub.Touched)
	}

	replayed, restored := fresh(), fresh()
	replay(replayed, log)
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	do(live.ClosePeriod(3_000))
	closed := log[len(log)-1]
	for _, rec := range []struct {
		what string
		da   *DataAggregator
	}{{"replayed", replayed}, {"restored", restored}} {
		msg, err := rec.da.ClosePeriod(3_000)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(msg.Summary.Compressed, closed.Summary.Compressed) || len(msg.Upserts) != len(closed.Upserts) {
			t.Fatalf("%s owner's close: %d re-certified, marks %x; live: %d, %x", rec.what,
				len(msg.Upserts), msg.Summary.Compressed, len(closed.Upserts), closed.Summary.Compressed)
		}
		same(rec.what+" owner's close", live, rec.da)
	}
	whole := fresh()
	replay(whole, log)
	same("the live close replayed", live, whole)
}

// TestServerRestoreInvalidatesCaches: Restore on a live server must
// advance every epoch (so answer-cache entries stamped pre-restore can
// never serve again).
func TestServerRestoreInvalidatesCaches(t *testing.T) {
	sys := newSystem(t, xortest.New())
	load(t, sys, 256)
	_, stamp, err := sys.QS.QueryStamped(10, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !stamp.Valid() {
		t.Fatal("a fresh stamp is not valid")
	}
	epochsBefore := make([]uint64, sys.QS.Shards())
	for i := range epochsBefore {
		epochsBefore[i] = sys.QS.epochs[i].Load()
	}

	st := sys.QS.Snapshot()
	if err := sys.QS.Restore(st); err != nil {
		t.Fatal(err)
	}
	for i := range epochsBefore {
		if sys.QS.epochs[i].Load() <= epochsBefore[i] {
			t.Fatalf("shard %d epoch did not advance across Restore", i)
		}
	}
	// An answer cached under the old stamp must be rebuilt, not served.
	if stamp.Valid() {
		t.Fatal("a stamp read before Restore is still valid after it")
	}
	ans, err := sys.QS.Query(10, 500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Verifier.VerifyAnswer(ans, 10, 500, 10_000); err != nil {
		t.Fatalf("post-restore answer failed verification: %v", err)
	}
	if got, want := sys.QS.Len(), 256; got != want {
		t.Fatalf("restored population %d, want %d", got, want)
	}
}

// TestApplySummaryIdempotent: re-delivering a summary (an at-least-once
// channel, or a recovery replay racing its watermark) must not
// duplicate the stream — duplicates would break every client's
// sequence-contiguity check.
func TestApplySummaryIdempotent(t *testing.T) {
	sys := newSystem(t, xortest.New())
	load(t, sys, 32)
	msg, err := sys.DA.ClosePeriod(200)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.QS.Apply(msg); err != nil {
		t.Fatal(err)
	}
	if err := sys.QS.Apply(msg); err != nil { // re-delivery
		t.Fatal(err)
	}
	sums := sys.QS.SummariesSince(0)
	if len(sums) != 1 {
		t.Fatalf("summary stream holds %d entries after re-delivery, want 1", len(sums))
	}
}

// TestFilterIsRelationState: the certified Bloom filter reaches a server
// in a dissemination message and leaves it in a snapshot, like a summary.
// Each installation — an Apply carrying one, any Restore — advances the
// filter epoch and nothing else does; a certificate whose signatures do
// not match its partitions is refused before it can be served.
func TestFilterIsRelationState(t *testing.T) {
	sys := newSystem(t, xortest.New())
	load(t, sys, 64)
	var read anscache.Stamp
	if fc := sys.QS.Filter(&read); fc != nil {
		t.Fatalf("a server nobody disseminated a filter to holds %+v", fc)
	}
	// step checks whether the filter epoch moved since the last step read it.
	step := func(what string, wantBump bool) {
		t.Helper()
		if bumped := !read.Valid(); bumped != wantBump {
			t.Fatalf("%s: filter epoch advanced %v, want %v", what, bumped, wantBump)
		}
		read = anscache.Stamp{}
		sys.QS.Filter(&read)
	}
	step("load", false)

	fc, err := sys.DA.CertifyFilter(8, 8, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.QS.Apply(&UpdateMsg{TS: 50, Filter: fc}); err != nil {
		t.Fatal(err)
	}
	if got := sys.QS.Filter(nil); got != fc {
		t.Fatal("the disseminated filter is not the one served")
	}
	step("apply with a filter", true)

	msg, err := sys.DA.Update(10, [][]byte{[]byte("u")}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.QS.Apply(msg); err != nil {
		t.Fatal(err)
	}
	step("apply without one", false)

	short := *fc
	short.Sigs = fc.Sigs[1:]
	if err := sys.QS.Apply(&UpdateMsg{TS: 70, Filter: &short}); err == nil {
		t.Fatal("a certificate with a signature short of its partitions was installed")
	}
	step("refused certificate", false)

	st := sys.QS.Snapshot()
	if st.Filter != fc {
		t.Fatal("the snapshot does not carry the filter")
	}
	mirror := NewQueryServer(sys.Scheme)
	if err := mirror.Restore(st); err != nil {
		t.Fatal(err)
	}
	if got, e := mirror.Filter(nil), mirror.filterEpoch.Load(); got != fc || e == 0 {
		t.Fatalf("restored server serves filter %p at epoch %d, want %p past 0", got, e, fc)
	}
	if err := sys.QS.Restore(st); err != nil {
		t.Fatal(err)
	}
	step("restore", true)
}
