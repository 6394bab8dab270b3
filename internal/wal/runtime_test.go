package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"authdb/internal/core"
)

// crashCopy is kill -9 as the file system sees it: every byte the
// process wrote to a file survives (the page cache outlives it), the
// log's in-process group-commit buffer does not. The copy is opened in
// place of the original, whose lock the "dead" runtime still holds.
func crashCopy(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() == "LOCK" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// bootRuntime brings fresh parties up over dir ("" = in memory) the way
// every consumer does: recover, or load 120 records on an empty store.
func (f *fixture) bootRuntime(dir string, opts Options, snapEvery int) (*Runtime, RecoveryStats) {
	f.t.Helper()
	var store *Store
	if dir != "" {
		var err error
		if store, err = Open(dir, opts); err != nil {
			f.t.Fatal(err)
		}
	}
	rt := NewRuntime(f.newDA(), core.NewQueryServer(f.scheme, core.WithShards(4)), store, snapEvery)
	f.t.Cleanup(func() { rt.Close() })
	st, recovered, err := rt.Recover()
	if err != nil {
		f.t.Fatal(err)
	}
	if !recovered {
		recs := make([]*core.Record, 120)
		for i := range recs {
			recs[i] = &core.Record{Key: int64(i+1) * 10, Attrs: [][]byte{[]byte("seed")}}
		}
		msg, err := rt.DA.Load(recs, 1)
		if err != nil {
			f.t.Fatal(err)
		}
		if err := rt.Load(msg); err != nil {
			f.t.Fatal(err)
		}
	}
	return rt, st
}

// drive delivers n updates past the runtime's clock, closing a period
// after every fifth, and returns how many messages that was.
func (f *fixture) drive(rt *Runtime, n int) int {
	f.t.Helper()
	msgs := 0
	deliver := func(msg *core.UpdateMsg, err error) {
		f.t.Helper()
		if err != nil {
			f.t.Fatal(err)
		}
		if err := rt.Deliver(msg); err != nil {
			f.t.Fatal(err)
		}
		msgs++
	}
	for i := 1; i <= n; i++ {
		ts := rt.TS() + 1
		deliver(rt.DA.Update(int64((int(ts)*13)%120+1)*10, [][]byte{[]byte(fmt.Sprintf("v-%d", ts))}, ts))
		if i%5 == 0 {
			deliver(rt.DA.ClosePeriod(rt.TS() + 1))
		}
	}
	return msgs
}

// snapshotFeed is a Feed that, inside Publish, images the server the
// way a bootstrapping follower would and checks the image already holds
// the message being announced.
type snapshotFeed struct {
	t    *testing.T
	qs   *core.QueryServer
	lsns []uint64
}

func (sf *snapshotFeed) Publish(lsn uint64, msg *core.UpdateMsg) {
	st := sf.qs.Snapshot()
	byRID := make(map[uint64]int64, len(st.Records))
	for _, sr := range st.Records {
		byRID[sr.Rec.RID] = sr.Rec.TS
	}
	for _, up := range msg.Upserts {
		if ts, ok := byRID[up.Rec.RID]; !ok || ts < up.Rec.TS {
			sf.t.Errorf("lsn %d published before applied: rid %d at ts %d in the image, message carries %d", lsn, up.Rec.RID, ts, up.Rec.TS)
		}
	}
	if s := msg.Summary; s != nil {
		if n := len(st.Summaries); n == 0 || st.Summaries[n-1].Seq < s.Seq {
			sf.t.Errorf("lsn %d published before applied: summary %d not in the image", lsn, s.Seq)
		}
	}
	sf.lsns = append(sf.lsns, lsn)
}

// TestRuntimeTable runs one workload through every shape of the
// runtime — durable or in memory, fed or not — and holds each to the
// same checks: the server ends up serving exactly what the owner
// certified, LSNs are dense from the load (LSN 1) on, and the feed, when
// there is one, hears of an LSN only after the server holds it.
func TestRuntimeTable(t *testing.T) {
	for _, tc := range []struct {
		name          string
		durable, feed bool
	}{
		{"durable+feed", true, true},
		{"durable", true, false},
		{"memory+feed", false, true},
		{"memory", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			dir := ""
			if tc.durable {
				dir = t.TempDir()
			}
			rt, _ := f.bootRuntime(dir, Options{NoSync: true}, 7)
			var sf *snapshotFeed
			if tc.feed {
				sf = &snapshotFeed{t: t, qs: rt.QS}
				rt.SetFeed(sf)
			}
			msgs := f.drive(rt, 40)
			if got, want := rt.LSN(), uint64(1+msgs); got != want {
				t.Fatalf("lsn %d after the load and %d messages, want %d", got, msgs, want)
			}
			if sf != nil {
				if len(sf.lsns) != msgs {
					t.Fatalf("feed saw %d messages, want %d", len(sf.lsns), msgs)
				}
				for i, lsn := range sf.lsns {
					if lsn != uint64(i+2) {
						t.Fatalf("feed message %d carried lsn %d, want %d", i, lsn, i+2)
					}
				}
			}
			f.fullSweep(rt.QS, 120)
			if (rt.Log() != nil) != tc.durable {
				t.Fatalf("Log() = %v on a durable=%v runtime", rt.Log(), tc.durable)
			}
			if !tc.durable {
				return
			}
			// The durable shapes also come back: same certified image, same
			// answers, and a clock a resumed writer can stamp past.
			want, ts := image(rt.QS), rt.TS()
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
			rt2, _ := f.bootRuntime(dir, Options{NoSync: true}, 7)
			if got := image(rt2.QS); string(got) != string(want) {
				t.Fatal("recovered owner differs from the one that was closed")
			}
			if rt2.TS() != ts || rt2.LSN() != uint64(1+msgs) {
				t.Fatalf("recovered at ts %d lsn %d, want ts %d lsn %d", rt2.TS(), rt2.LSN(), ts, 1+msgs)
			}
			f.fullSweep(rt2.QS, 120)
			f.drive(rt2, 5)
			f.fullSweep(rt2.QS, 120)
		})
	}
}

// TestRuntimeTailDoesNotGrow: crash → boot → crash → boot with no
// periodic snapshot in between. The first boot folds the tail it
// replayed into a fresh snapshot, so the second replays only what was
// delivered since — not the first tail again plus the new messages.
func TestRuntimeTailDoesNotGrow(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	rt, _ := f.bootRuntime(dir, Options{}, 0)
	first := f.drive(rt, 20)

	dir = crashCopy(t, dir)
	rt, st := f.bootRuntime(dir, Options{}, 0)
	if st.Replayed != first {
		t.Fatalf("first recovery replayed %d messages, want the %d delivered", st.Replayed, first)
	}
	second := f.drive(rt, 5)

	dir = crashCopy(t, dir)
	rt, st = f.bootRuntime(dir, Options{}, 0)
	if st.Replayed != second {
		t.Fatalf("second recovery replayed %d messages, want only the %d delivered since the first", st.Replayed, second)
	}
	f.fullSweep(rt.QS, 120)
}

// TestRuntimeSummaryDurableOnDeliver: under a group-commit window that
// never fires, an update is still in the process's buffer when Deliver
// returns — but a message certifying a summary is on disk, together
// with everything before it.
func TestRuntimeSummaryDurableOnDeliver(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	rt, _ := f.bootRuntime(dir, Options{GroupCommit: time.Hour}, 0)

	msg, err := rt.DA.Update(50, [][]byte{[]byte("buffered")}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Deliver(msg); err != nil {
		t.Fatal(err)
	}
	if _, st := f.bootRuntime(crashCopy(t, dir), Options{}, 0); st.Replayed != 0 {
		t.Fatalf("an unsynced update survived the crash (%d replayed): the crash model drops nothing", st.Replayed)
	}

	if msg, err = rt.DA.ClosePeriod(11); err != nil {
		t.Fatal(err)
	}
	if err := rt.Deliver(msg); err != nil {
		t.Fatal(err)
	}
	rec, st := f.bootRuntime(crashCopy(t, dir), Options{}, 0)
	if st.Replayed != 2 {
		t.Fatalf("recovery replayed %d messages, want the update and the summary", st.Replayed)
	}
	if sums := rec.QS.SummariesSince(0); len(sums) != 1 || sums[0].Seq != msg.Summary.Seq {
		t.Fatalf("summary %d not on disk when Deliver returned: recovered %v", msg.Summary.Seq, sums)
	}
}

// TestRuntimeSnapshotAtTheCut: a periodic snapshot is stamped with the
// LSN and the logical time of the message it was captured behind — not
// with boot time — and recovery from it replays only the tail past it.
func TestRuntimeSnapshotAtTheCut(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	rt, _ := f.bootRuntime(dir, Options{NoSync: true}, 10)
	tsAt := map[uint64]int64{}
	for i := 0; i < 25; i++ {
		f.drive(rt, 1)
		tsAt[rt.LSN()] = rt.TS()
	}
	if err := rt.Close(); err != nil { // waits for the background write
		t.Fatal(err)
	}
	store, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	snap, err := store.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.LSN <= 1 {
		t.Fatalf("snapshot still at lsn %d: no periodic snapshot was taken", snap.LSN)
	}
	if want := tsAt[snap.LSN]; snap.TS != want {
		t.Fatalf("snapshot at lsn %d stamped ts %d, want the ts of that message, %d", snap.LSN, snap.TS, want)
	}
}

// TestRuntimeSnapshotWriteOffTheWriter: the snapshot's encode + fsync +
// truncate is not on the writer's path. With the image file made
// unwritable, the Deliver that triggers the snapshot still succeeds; the
// failure surfaces on a later call.
func TestRuntimeSnapshotWriteOffTheWriter(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	rt, _ := f.bootRuntime(dir, Options{NoSync: true}, 3)
	if err := os.Mkdir(filepath.Join(dir, snapTmp), 0o755); err != nil {
		t.Fatal(err)
	}
	f.drive(rt, 3) // the third Deliver captures; its write must fail elsewhere
	err := rt.Close()
	if err == nil || !strings.Contains(err.Error(), "background snapshot") {
		t.Fatalf("Close() = %v, want the background snapshot failure", err)
	}
}
