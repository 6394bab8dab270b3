package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"authdb/internal/chain"
	"authdb/internal/core"
	"authdb/internal/freshness"
	"authdb/internal/sigagg"
)

// collect replays the log into its LSNs and bodies.
func collect(t *testing.T, l *Log) (lsns []uint64, bodies [][]byte) {
	t.Helper()
	err := l.Replay(func(lsn uint64, body []byte) error {
		lsns = append(lsns, lsn)
		bodies = append(bodies, append([]byte(nil), body...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lsns, bodies
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 10; i++ {
		body := []byte(fmt.Sprintf("record-%d", i))
		want = append(want, body)
		lsn, err := l.Append(body)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn %d, want %d", lsn, i+1)
		}
	}
	lsns, bodies := collect(t, l)
	if len(lsns) != 10 {
		t.Fatalf("replayed %d records", len(lsns))
	}
	for i, b := range bodies {
		if !bytes.Equal(b, want[i]) {
			t.Fatalf("record %d: %q != %q", i, b, want[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the position and contents survive.
	l2, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 10 {
		t.Fatalf("reopened at lsn %d", l2.LastLSN())
	}
	if lsn, err := l2.Append([]byte("after")); err != nil || lsn != 11 {
		t.Fatalf("append after reopen: lsn %d err %v", lsn, err)
	}
	lsns, _ = collect(t, l2)
	if len(lsns) != 11 || lsns[10] != 11 {
		t.Fatalf("post-reopen replay: %v", lsns)
	}
}

// TestTornTailEveryOffset simulates a crash mid-write at every byte
// offset of the final record: recovery must land exactly on the last
// complete record — never an error, never a partial or garbage record —
// and the log must accept appends again.
func TestTornTailEveryOffset(t *testing.T) {
	master := t.TempDir()
	l, err := OpenLog(master, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	bodies := [][]byte{
		[]byte("first-record-payload"),
		[]byte("second-record-payload"),
		[]byte("third-and-final-record-payload"),
	}
	for _, b := range bodies {
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(master, segName(1))
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	lastFrame := frameHdr + framePfx + len(bodies[2])
	cleanEnd := len(full) - lastFrame

	for cut := cleanEnd; cut < len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tl, err := OpenLog(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		lsns, got := collect(t, tl)
		if len(lsns) != 2 {
			t.Fatalf("cut %d: recovered %d records, want 2", cut, len(lsns))
		}
		for i := 0; i < 2; i++ {
			if !bytes.Equal(got[i], bodies[i]) {
				t.Fatalf("cut %d: record %d corrupted: %q", cut, i, got[i])
			}
		}
		// The log must continue from the last complete record.
		if lsn, err := tl.Append([]byte("resumed")); err != nil || lsn != 3 {
			t.Fatalf("cut %d: resume append lsn %d err %v", cut, lsn, err)
		}
		lsns, _ = collect(t, tl)
		if len(lsns) != 3 || lsns[2] != 3 {
			t.Fatalf("cut %d: post-resume replay %v", cut, lsns)
		}
		tl.Close()
	}
}

// TestCorruptCRCStopsReplay: a bit flip in the tail record's payload is
// caught by the CRC and the record is dropped, not applied as garbage.
func TestCorruptCRCStopsReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // flip a payload byte of the final record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLog(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastLSN(); got != 2 {
		t.Fatalf("recovered to lsn %d, want 2", got)
	}
}

// TestOldSegmentMagicRefused: a segment of an earlier layout is not read
// as this one's — AWAL1 (a kind byte after each LSN), AWAL2 (deletes
// naming their rid alone) or AWAL3 (a period close whose re-signatures
// were last period's pending slots, marked before its summary: replayed
// as this layout's close, the slots the closed period updated twice would
// never be re-certified).
func TestOldSegmentMagicRefused(t *testing.T) {
	for _, magic := range []string{"AWAL1", "AWAL2", "AWAL3"} {
		dir := t.TempDir()
		old := append([]byte(magic+"\n"), 0, 0, 0, 9)
		if err := os.WriteFile(filepath.Join(dir, segName(1)), old, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenLog(dir, Options{NoSync: true}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s segment: %v, want ErrCorrupt", magic, err)
		}
	}
}

// TestRecoverRefusesNonUpdateRecord: every log record is an update
// message; recovery stops at one that is not, rather than leaving the
// owner and server a message short.
func TestRecoverRefusesNonUpdateRecord(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.log.Append([]byte("not an update message")); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Recover(f.newDA(), core.NewQueryServer(f.scheme)); err == nil {
		t.Fatal("a record that is not an update message replayed silently")
	}
}

func TestRotateAndDropThrough(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("a-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	for i := 6; i <= 8; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("b-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Watermark 3: the first segment still holds records 4,5 — kept.
	if err := l.DropThrough(3); err != nil {
		t.Fatal(err)
	}
	if lsns, _ := collect(t, l); len(lsns) != 8 {
		t.Fatalf("premature truncation: %d records left", len(lsns))
	}
	// Watermark 5: the sealed segment is fully covered — deleted.
	if err := l.DropThrough(5); err != nil {
		t.Fatal(err)
	}
	lsns, _ := collect(t, l)
	if len(lsns) != 3 || lsns[0] != 6 {
		t.Fatalf("post-truncate replay: %v", lsns)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Fatal("covered segment not deleted")
	}
}

func TestGroupCommitDurability(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{GroupCommit: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	// The background committer catches up without an explicit Sync.
	deadline := time.Now().Add(2 * time.Second)
	for l.DurableLSN() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("group commit never made the record durable")
		}
		time.Sleep(time.Millisecond)
	}
	// Sync is an immediate fence.
	if _, err := l.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.DurableLSN() != 2 {
		t.Fatalf("durable lsn %d after Sync", l.DurableLSN())
	}
}

func TestSnapshotRoundtripFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.Empty() {
		t.Fatal("fresh store not empty")
	}
	server := &core.ServerState{
		Records: []core.SignedRecord{
			{Rec: &chain.Record{RID: 7, Key: 10, TS: 30}, Sig: sigagg.Signature("sig-a"),
				AttrVals: [][]byte{[]byte("v0"), []byte("v1")},
				AttrSigs: []sigagg.Signature{sigagg.Signature("a0"), sigagg.Signature("a1")}},
			{Rec: &chain.Record{RID: 8, Key: 20, Attrs: [][]byte{{1}}, TS: 31}, Sig: sigagg.Signature("sig-b")},
		},
		Summaries: []freshness.Summary{
			{Seq: 1, PeriodStart: 0, TS: 40, Compressed: []byte{0x01}, Sig: sigagg.Signature("sum-sig")},
		},
	}
	snap := &Snapshot{
		LSN:    7,
		TS:     42,
		Server: server,
		Owner: &core.OwnerState{
			NextRID: 9,
			Records: server.Records,
			Pub: &freshness.PublisherState{
				Seq:     2,
				LastTS:  40,
				Slots:   8,
				Touched: map[int]int{2: 2, 7: 1},
			},
		},
	}
	if err := s.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if s.Empty() {
		t.Fatal("store with snapshot reports empty")
	}
	got, err := s.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The file stores records and summaries once; both parties' states
	// come back whole, the §3.4 sideband included.
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("snapshot mismatch:\n got %+v / %+v / %+v\nwant %+v / %+v / %+v",
			got, got.Server, got.Owner, snap, snap.Server, snap.Owner)
	}

	// Deterministic encoding: identical states produce identical bytes.
	if !bytes.Equal(encodeSnapshot(snap), encodeSnapshot(snap)) {
		t.Fatal("snapshot encoding is not deterministic")
	}

	// A corrupted image fails loudly, never loads a half-state.
	path := filepath.Join(dir, snapName)
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0x01
	os.WriteFile(path, data, 0o644)
	if _, err := s.LoadSnapshot(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged snapshot: %v, want ErrCorrupt", err)
	}
	// So does a truncated one, at any length, and one whose checksum
	// vouches for bytes that are not an image — or for another layout's.
	whole := encodeSnapshot(snap)
	for cut := 0; cut < len(whole); cut++ {
		if _, err := decodeSnapshot(whole[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("snapshot truncated to %d bytes: %v, want ErrCorrupt", cut, err)
		}
	}
	reseal := func(body []byte) []byte {
		return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body[len(snapMagic):]))
	}
	if _, err := decodeSnapshot(reseal(bytes.Clone(whole[:len(whole)-12]))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short owner block under a valid CRC: %v, want ErrCorrupt", err)
	}
	for _, magic := range []string{"ASNP2\n", "ASNP3\n", "ASNP4\n", "ASNP5\n"} {
		old := reseal(append([]byte(magic), whole[len(snapMagic):len(whole)-4]...))
		if _, err := decodeSnapshot(old); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("previous layout's magic %q: %v, want ErrCorrupt", magic, err)
		}
	}
}

// TestStoreLock: a second process (simulated by a second Open) must be
// refused while the store is held — interleaved appends from two
// writers would corrupt the active segment.
func TestStoreLock(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoSync: true}); err == nil {
		t.Fatal("double-open succeeded")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	s2.Close()
}
