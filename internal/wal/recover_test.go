package wal

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"

	"authdb/internal/core"
	"authdb/internal/join"
	"authdb/internal/query"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/xortest"
	"authdb/internal/wire"
)

// fixture shares one key pair so a recovered system and a never-crashed
// mirror produce comparable (byte-identical) signatures.
type fixture struct {
	t      *testing.T
	scheme sigagg.Scheme
	priv   sigagg.PrivateKey
	pub    sigagg.PublicKey
	cfg    core.Config
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	raw := xortest.New()
	priv, pub, err := raw.KeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := sigagg.Bind(raw, pub)
	if err != nil {
		t.Fatal(err)
	}
	// A short renewal age so RenewOld actually renews inside the test's
	// compressed logical clock.
	return &fixture{t: t, scheme: bound, priv: priv, pub: pub, cfg: core.Config{Rho: 10, RhoPrime: 40}}
}

func (f *fixture) newDA(opts ...core.DAOption) *core.DataAggregator {
	da, err := core.NewDataAggregator(f.scheme, f.priv, f.cfg, opts...)
	if err != nil {
		f.t.Fatal(err)
	}
	return da
}

const workloadOps = 100

// runWorkload drives a deterministic mixed stream — updates, inserts,
// deletes, period closes, signature renewals — through the owner and
// server. Every produced message goes through sink (the WAL hook in the
// durable run, a no-op in the mirror) before it is applied, mirroring
// write-ahead order. after(i) runs once op i is fully applied.
func (f *fixture) runWorkload(da *core.DataAggregator, qs *core.QueryServer,
	sink func(*core.UpdateMsg) error, after func(i int)) {
	f.t.Helper()
	apply := func(msg *core.UpdateMsg) {
		if msg == nil {
			return
		}
		if sink != nil {
			if err := sink(msg); err != nil {
				f.t.Fatal(err)
			}
		}
		if err := qs.Apply(msg); err != nil {
			f.t.Fatal(err)
		}
	}
	recs := make([]*core.Record, 120)
	for i := range recs {
		recs[i] = &core.Record{Key: int64(i+1) * 10, Attrs: [][]byte{[]byte("seed")}}
	}
	msg, err := da.Load(recs, 1)
	if err != nil {
		f.t.Fatal(err)
	}
	apply(msg)

	ts := int64(1)
	for i := 1; i <= workloadOps; i++ {
		ts++
		key := int64((i*13)%120+1) * 10
		msg, err := da.Update(key, [][]byte{[]byte(fmt.Sprintf("v-%d", i))}, ts)
		if err != nil {
			f.t.Fatal(err)
		}
		apply(msg)
		if i%9 == 0 {
			ts++
			msg, err := da.Insert(&core.Record{Key: 100000 + int64(i)*10, Attrs: [][]byte{[]byte("ins")}}, ts)
			if err != nil {
				f.t.Fatal(err)
			}
			apply(msg)
		}
		if i%18 == 0 {
			ts++
			msg, err := da.Delete(100000+int64(i-9)*10, ts)
			if err != nil {
				f.t.Fatal(err)
			}
			apply(msg)
		}
		if i%10 == 0 {
			ts++
			msg, err := da.ClosePeriod(ts)
			if err != nil {
				f.t.Fatal(err)
			}
			apply(msg)
		}
		if i%25 == 0 {
			ts++
			msg, _, err := da.RenewOld(ts, 7)
			if err != nil {
				f.t.Fatal(err)
			}
			apply(msg)
		}
		if after != nil {
			after(i)
		}
	}
}

// TestSnapshotAndBootstrapCarryOneImage: the snapshot file and the 'B'
// frame are two envelopes around one encoding of a relation, so the
// server state a recovery reads from disk and the one a follower reads
// off the feed are equal — the §3.4 sideband of a projection-mode
// relation included — and either restores a server that answers
// projections.
func TestSnapshotAndBootstrapCarryOneImage(t *testing.T) {
	f := newFixture(t)
	da, qs := f.newDA(core.WithAttrSigning()), core.NewQueryServer(f.scheme, core.WithShards(4))
	f.runWorkload(da, qs, nil, nil)
	snap, err := Capture(da, qs, 9, 77)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := decodeSnapshot(encodeSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	lsn, fromFrame, err := wire.DecodeBootstrap(wire.AppendBootstrap(nil, snap.LSN, snap.Server))
	if err != nil || lsn != snap.LSN {
		t.Fatalf("bootstrap decode: lsn %d, %v", lsn, err)
	}
	if !reflect.DeepEqual(fromFile.Server, fromFrame) {
		t.Fatal("snapshot file and 'B' frame decode to different server states")
	}
	if !bytes.Equal(wire.AppendImage(nil, fromFrame), wire.AppendImage(nil, snap.Server)) {
		t.Fatal("decoded state differs from the captured one")
	}
	if n := len(fromFrame.Records); n == 0 || len(fromFrame.Records[n/2].AttrSigs) != 1 || len(fromFrame.Summaries) == 0 {
		t.Fatalf("image lost the sideband or the summaries: %d records, %d summaries", n, len(fromFrame.Summaries))
	}
	for name, st := range map[string]*core.ServerState{"file": fromFile.Server, "frame": fromFrame} {
		restored := core.NewQueryServer(f.scheme, core.WithShards(2))
		if err := restored.Restore(st); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, rows, _, err := restored.QueryProj(10, 500); err != nil || len(rows) != 50 {
			t.Fatalf("%s: projection over the restored server: %d rows, %v", name, len(rows), err)
		}
	}
}

// image wire-encodes the certified state a query server holds — every
// record the owner disseminated with its timestamp and signature, and
// every summary — so two owners' servers compare byte-for-byte.
func image(qs *core.QueryServer) []byte {
	return wire.AppendImage(nil, qs.Snapshot())
}

// fullSweep runs a -check-style verification of the entire catalog on
// the server: chunked range queries covering every key, each verified
// for authenticity, completeness and freshness against the whole
// certified summary stream.
func (f *fixture) fullSweep(qs *core.QueryServer, wantRecords int) {
	f.t.Helper()
	v := core.NewVerifier(f.scheme, f.pub, f.cfg)
	for _, s := range qs.SummariesTail(0, 0) {
		if err := v.IngestSummary(s); err != nil {
			f.t.Fatalf("summary %d: %v", s.Seq, err)
		}
	}
	covered := 0
	for lo := int64(1); lo < 1_000_000; lo += 50_000 {
		hi := lo + 49_999
		ans, _, err := qs.QueryStamped(lo, hi)
		if err != nil {
			f.t.Fatalf("sweep query [%d,%d]: %v", lo, hi, err)
		}
		covered += len(ans.Chain.Records)
		if _, err := v.VerifyScan(ans.Chain, lo, hi, 1_000_000); err != nil {
			f.t.Fatalf("full verification sweep failed on [%d,%d]: %v", lo, hi, err)
		}
	}
	if covered != wantRecords {
		f.t.Fatalf("sweep covered %d of %d records", covered, wantRecords)
	}
}

// TestRecoverMidLogSnapshotIdempotence is the replay-idempotence
// regression: a snapshot is captured mid-log but written late (the
// background-snapshot pattern), so the surviving log fully overlaps it.
// Recovery must skip the overlap via the watermark — double-applying
// would double-count period update marks and re-certify records a
// never-crashed owner would not — and the recovered owner must be
// byte-identical to the mirror, including everything both sign next.
func TestRecoverMidLogSnapshotIdempotence(t *testing.T) {
	f := newFixture(t)

	// Mirror: the never-crashed run.
	daA := f.newDA()
	qsA := core.NewQueryServer(f.scheme)
	f.runWorkload(daA, qsA, nil, nil)

	// Durable run: log every message; snapshot captured at op 60,
	// written (with log truncation) at op 75 while appends continued.
	dir := t.TempDir()
	store, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	daB := f.newDA()
	qsB := core.NewQueryServer(f.scheme)
	var pending *Snapshot
	f.runWorkload(daB, qsB,
		func(msg *core.UpdateMsg) error {
			_, err := store.AppendMsg(msg)
			return err
		},
		func(i int) {
			var err error
			switch i {
			case 60:
				pending, err = Capture(daB, qsB, store.LastLSN(), 0)
			case 75:
				err = store.WriteSnapshot(pending)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	total := store.LastLSN()
	// Crash: daB/qsB die with the process; only the store survives.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	daR := f.newDA()
	qsR := core.NewQueryServer(f.scheme)
	stats, err := store2.Recover(daR, qsR)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotLSN == 0 || stats.SnapshotLSN >= total {
		t.Fatalf("snapshot watermark %d not mid-log (total %d)", stats.SnapshotLSN, total)
	}
	if stats.Skipped == 0 {
		t.Fatal("log did not overlap the snapshot — the regression scenario was not exercised")
	}
	if uint64(stats.Replayed) != total-stats.SnapshotLSN {
		t.Fatalf("replayed %d, want %d (total %d, watermark %d)",
			stats.Replayed, total-stats.SnapshotLSN, total, stats.SnapshotLSN)
	}

	// Byte-identical certified state.
	if !bytes.Equal(image(qsA), image(qsR)) {
		t.Fatal("recovered owner state differs from the never-crashed mirror")
	}

	// The recovery boundary must also preserve the invisible bookkeeping
	// — period touch counts, multi-update pendings, renewal ages, rid
	// allocation. Run identical follow-on operations on both and demand
	// identical output messages.
	ts := int64(10_000)
	step := func(name string, op func(da *core.DataAggregator) (*core.UpdateMsg, error)) {
		t.Helper()
		ma, err := op(daA)
		if err != nil {
			t.Fatalf("%s (mirror): %v", name, err)
		}
		mr, err := op(daR)
		if err != nil {
			t.Fatalf("%s (recovered): %v", name, err)
		}
		if !bytes.Equal(wire.AppendUpdateMsg(nil, ma), wire.AppendUpdateMsg(nil, mr)) {
			t.Fatalf("%s diverged after recovery", name)
		}
		if err := qsA.Apply(ma); err != nil {
			t.Fatal(err)
		}
		if err := qsR.Apply(mr); err != nil {
			t.Fatal(err)
		}
	}
	step("post-recovery update", func(da *core.DataAggregator) (*core.UpdateMsg, error) {
		return da.Update(130, [][]byte{[]byte("post")}, ts)
	})
	step("post-recovery update 2", func(da *core.DataAggregator) (*core.UpdateMsg, error) {
		return da.Update(130, [][]byte{[]byte("post2")}, ts+1)
	})
	// The first close re-certifies multi-updated slots (key 130 twice
	// this period, plus whatever the pre-crash period left pending); a
	// second close catches pendings carried across the boundary.
	step("post-recovery period close", func(da *core.DataAggregator) (*core.UpdateMsg, error) {
		return da.ClosePeriod(ts + 2)
	})
	step("second period close", func(da *core.DataAggregator) (*core.UpdateMsg, error) {
		return da.ClosePeriod(ts + 13)
	})
	step("post-recovery insert", func(da *core.DataAggregator) (*core.UpdateMsg, error) {
		return da.Insert(&core.Record{Key: 999_999, Attrs: [][]byte{[]byte("rid-check")}}, ts+14)
	})
	step("post-recovery renewal", func(da *core.DataAggregator) (*core.UpdateMsg, error) {
		msg, _, err := da.RenewOld(ts+15, 9)
		return msg, err
	})
	if got, want := daR.OldestCertTS(), daA.OldestCertTS(); got != want {
		t.Fatalf("recovered oldest certification %d, mirror %d", got, want)
	}

	// Clean full-catalog verification on the recovered server.
	f.fullSweep(qsR, daA.Len())

	// And the summary streams agree.
	sa, sr := qsA.SummariesTail(0, 0), qsR.SummariesTail(0, 0)
	if len(sa) != len(sr) {
		t.Fatalf("summary streams differ: %d vs %d", len(sa), len(sr))
	}
	for i := range sa {
		if sa[i].Seq != sr[i].Seq || !bytes.Equal(sa[i].Sig, sr[i].Sig) {
			t.Fatalf("summary %d diverged", i)
		}
	}
}

// TestRecoverNoSnapshot replays the entire log into empty components —
// the first-boot-after-crash case where no background snapshot ever
// completed.
func TestRecoverNoSnapshot(t *testing.T) {
	f := newFixture(t)
	daA := f.newDA()
	qsA := core.NewQueryServer(f.scheme)
	f.runWorkload(daA, qsA, nil, nil)

	dir := t.TempDir()
	store, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	daB := f.newDA()
	qsB := core.NewQueryServer(f.scheme)
	f.runWorkload(daB, qsB, func(msg *core.UpdateMsg) error {
		_, err := store.AppendMsg(msg)
		return err
	}, nil)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	daR := f.newDA()
	qsR := core.NewQueryServer(f.scheme)
	stats, err := store2.Recover(daR, qsR)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotLSN != 0 || stats.Skipped != 0 {
		t.Fatalf("unexpected snapshot involvement: %+v", stats)
	}
	if !bytes.Equal(image(qsA), image(qsR)) {
		t.Fatal("full-log replay diverged from the mirror")
	}
	f.fullSweep(qsR, daA.Len())
}

// TestRecoverTornTailPrefix: a crash that tears the final log record
// recovers to the longest durable prefix — and that prefix is exactly
// the state of a mirror run stopped at the same message.
func TestRecoverTornTailPrefix(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	store, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	daB := f.newDA()
	qsB := core.NewQueryServer(f.scheme)
	var encoded [][]byte // every logged message, for the prefix mirror
	f.runWorkload(daB, qsB, func(msg *core.UpdateMsg) error {
		encoded = append(encoded, wire.AppendUpdateMsg(nil, msg))
		_, err := store.AppendMsg(msg)
		return err
	}, nil)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record mid-frame.
	reopened, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	lastSeg := reopened.log.segs[len(reopened.log.segs)-1]
	reopened.Close()
	data, err := os.ReadFile(lastSeg.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(lastSeg.path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	store2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	daR := f.newDA()
	qsR := core.NewQueryServer(f.scheme)
	stats, err := store2.Recover(daR, qsR)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(stats.Replayed) != uint64(len(encoded)-1) {
		t.Fatalf("replayed %d, want the %d-message durable prefix", stats.Replayed, len(encoded)-1)
	}

	// Mirror stopped one message short.
	daM := f.newDA()
	qsM := core.NewQueryServer(f.scheme)
	for _, raw := range encoded[:len(encoded)-1] {
		msg, err := wire.DecodeUpdateMsg(raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := daM.ReplayMsg(msg); err != nil {
			t.Fatal(err)
		}
		if err := qsM.Apply(msg); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(image(qsM), image(qsR)) {
		t.Fatal("torn-tail recovery does not match the durable prefix")
	}
	f.fullSweep(qsR, daR.Len())
}

// TestRecoverLostSegmentsAdvancesLSN: if every log segment vanishes
// while the snapshot survives (torn directory, partial copy), recovery
// must fast-forward LSN assignment past the watermark — otherwise
// post-recovery appends reuse covered LSNs and the NEXT recovery
// silently skips them as snapshot overlap.
func TestRecoverLostSegmentsAdvancesLSN(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	store, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	daB := f.newDA()
	qsB := core.NewQueryServer(f.scheme)
	f.runWorkload(daB, qsB, func(msg *core.UpdateMsg) error {
		_, err := store.AppendMsg(msg)
		return err
	}, nil)
	snap, err := Capture(daB, qsB, store.LastLSN(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	watermark := snap.LSN
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// Lose every segment; keep the snapshot.
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range names {
		if _, ok := parseSegName(de.Name()); ok {
			os.Remove(dir + "/" + de.Name())
		}
	}

	store2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	daR := f.newDA()
	qsR := core.NewQueryServer(f.scheme)
	if _, err := store2.Recover(daR, qsR); err != nil {
		t.Fatal(err)
	}
	if got := store2.LastLSN(); got < watermark {
		t.Fatalf("post-recovery log position %d below watermark %d", got, watermark)
	}
	// Post-recovery writes land past the watermark...
	msg, err := daR.Update(50, [][]byte{[]byte("survivor")}, 99_999)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := store2.AppendMsg(msg)
	if err != nil {
		t.Fatal(err)
	}
	if lsn <= watermark {
		t.Fatalf("post-recovery append got covered lsn %d (watermark %d)", lsn, watermark)
	}
	if err := qsR.Apply(msg); err != nil {
		t.Fatal(err)
	}
	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}
	// ...and the NEXT recovery replays them instead of skipping.
	store3, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store3.Close()
	daR2 := f.newDA()
	qsR2 := core.NewQueryServer(f.scheme)
	stats, err := store3.Recover(daR2, qsR2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != 1 {
		t.Fatalf("second recovery replayed %d messages, want the 1 post-recovery write", stats.Replayed)
	}
	if !bytes.Equal(image(qsR), image(qsR2)) {
		t.Fatal("second recovery lost the post-recovery write")
	}
}

// TestRecoveredRelationKeepsFilter: the certified Bloom filter (§3.5) is
// relation state like a summary — logged before it is applied, folded into
// snapshots — so a server killed between the filter message's append and
// its apply, or any time after, comes back holding it and answers a BF join
// under the pre-crash certification. The recovered owner holds a key whose
// signatures would not verify: nothing it could sign goes into the proof.
func TestRecoveredRelationKeepsFilter(t *testing.T) {
	f := newFixture(t)
	// The outer relation: every multiple of 5 up to 600, so every other key
	// misses the inner relation's 10, 20, ….
	outerDA, outerQS := f.newDA(), core.NewQueryServer(f.scheme, core.WithShards(4))
	var recs []*core.Record
	for k := int64(5); k <= 600; k += 5 {
		recs = append(recs, &core.Record{Key: k, Attrs: [][]byte{[]byte("outer")}})
	}
	msg, err := outerDA.Load(recs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := outerQS.Apply(msg); err != nil {
		t.Fatal(err)
	}
	impostor := *f
	if impostor.priv, _, err = xortest.New().KeyGen(nil); err != nil {
		t.Fatal(err)
	}
	// recoverAndJoin boots an impostor-keyed owner over a crash image of dir
	// and holds a BF join against the recovered server to certifiedAt.
	recoverAndJoin := func(t *testing.T, dir string, certifiedAt int64, wantReplayed bool) string {
		t.Helper()
		dir = crashCopy(t, dir)
		rt, st := impostor.bootRuntime(dir, Options{}, 0)
		if (st.Replayed > 0) != wantReplayed {
			t.Fatalf("recovery replayed %d messages", st.Replayed)
		}
		if rt.TS() < certifiedAt {
			t.Fatalf("recovered at ts %d, behind the filter certified at %d", rt.TS(), certifiedAt)
		}
		eng := query.NewEngine()
		for name, qs := range map[string]*core.QueryServer{"o": outerQS, "i": rt.QS} {
			if err := eng.AddRelation(name, qs); err != nil {
				t.Fatal(err)
			}
		}
		// The selection begins and ends on keys the inner relation lacks:
		// no run covers those, so Bloom negatives answer them.
		res, err := eng.Execute(&query.Spec{Rel: "o", Lo: 105, Hi: 495, Join: &query.JoinSpec{Rel: "i", Method: join.BF}})
		if err != nil {
			t.Fatalf("BF join against the recovered relation: %v", err)
		}
		ja := res.Comp.Join
		if len(ja.Negatives) == 0 || ja.FilterTS != certifiedAt {
			t.Fatalf("join carries %d partitions of negatives dated %d, want some under the pre-crash certification at %d",
				len(ja.Negatives), ja.FilterTS, certifiedAt)
		}
		if _, err := join.Verify(f.scheme, f.pub, join.OuterKeys(res.Comp.Outer.Records), ja); err != nil {
			t.Fatalf("join proof from the recovered relation: %v", err)
		}
		return dir
	}
	certify := func(rt *Runtime) *core.UpdateMsg {
		t.Helper()
		fc, err := rt.DA.CertifyFilter(8, 8, rt.TS()+1)
		if err != nil {
			t.Fatal(err)
		}
		return &core.UpdateMsg{TS: fc.TS, Filter: fc}
	}

	t.Run("killed after the apply", func(t *testing.T) {
		dir := t.TempDir()
		rt, _ := f.bootRuntime(dir, Options{}, 0)
		f.drive(rt, 7)
		msg := certify(rt)
		if err := rt.Deliver(msg); err != nil {
			t.Fatal(err)
		}
		f.drive(rt, 3) // updates only: the key set the filter covers is unchanged
		// From the log tail, then — the first recovery having folded the tail
		// into a snapshot — from the image alone.
		dir = recoverAndJoin(t, dir, msg.TS, true)
		recoverAndJoin(t, dir, msg.TS, false)
	})
	t.Run("killed between the append and the apply", func(t *testing.T) {
		dir := t.TempDir()
		rt, _ := f.bootRuntime(dir, Options{}, 0)
		f.drive(rt, 7)
		msg := certify(rt)
		if _, err := rt.store.AppendMsg(msg); err != nil {
			t.Fatal(err)
		}
		if fc := rt.QS.Filter(nil); fc != nil {
			t.Fatal("the dying server applied the filter: test setup broken")
		}
		recoverAndJoin(t, dir, msg.TS, true)
	})
}
