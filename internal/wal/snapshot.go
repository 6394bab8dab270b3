package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"authdb/internal/core"
	"authdb/internal/freshness"
	"authdb/internal/wire"
)

// The snapshot file ("snapshot" in the store directory) is one
// point-in-time image plus the LSN watermark of the last log record it
// folds in:
//
//	| magic | u64 LSN | i64 TS | u64 len | wire UpdateMsg (records) |
//	| u64 len | wire summary batch | u8 hasOwner | owner block | u32 CRC |
//
// The record image and summary stream reuse the wire codecs — the same
// battle-tested encodings that cross the trust boundary — so a snapshot
// is readable by anything that can parse the protocol. Replacement is
// atomic: written to "snapshot.tmp", fsynced, renamed over the old
// image, directory fsynced. A crash leaves either the old snapshot or
// the new one, never a blend; the trailing CRC turns any partial write
// that does surface into a loud error instead of a silent half-state.

const snapMagic = "ASNP1\n"

// snapName and snapTmp are the snapshot file names within a store dir.
const (
	snapName = "snapshot"
	snapTmp  = "snapshot.tmp"
)

// OwnerExtra is the owner-only portion of a snapshot: rid allocation,
// pending re-certifications, and the publisher's mid-period state. Nil
// for a server-only store. The publisher history is not duplicated in
// the file — it is the snapshot's summary stream (trimmed to MaxHist on
// restore).
type OwnerExtra struct {
	NextRID      uint64
	MultiPending []int
	PubSeq       uint64
	PubLastTS    int64
	PubCur       []byte // compressed current-period bitmap
	PubTouched   map[int]int
	PubMaxHist   int
}

// Snapshot is one durable image of the pipeline's state.
type Snapshot struct {
	LSN       uint64 // last log record folded into this image
	TS        int64  // logical time the image was taken
	Records   []core.SignedRecord
	Summaries []freshness.Summary
	Owner     *OwnerExtra
}

// Capture builds a snapshot from live components at the given watermark
// and logical time. Either party may be nil; when both are present the
// record image is taken from the server (they are identical by
// construction — the owner disseminates every signature it creates).
func Capture(da *core.DataAggregator, qs *core.QueryServer, lsn uint64, ts int64) (*Snapshot, error) {
	if da == nil && qs == nil {
		return nil, fmt.Errorf("wal: nothing to snapshot")
	}
	snap := &Snapshot{LSN: lsn, TS: ts}
	if qs != nil {
		st := qs.Snapshot()
		snap.Records = st.Records
		snap.Summaries = st.Summaries
	}
	if da != nil {
		var st *core.OwnerState
		if qs == nil {
			full, err := da.Snapshot()
			if err != nil {
				return nil, err
			}
			st = full
			snap.Records = st.Records
			snap.Summaries = st.Pub.History
		} else {
			// The record image above came from the server; skip the
			// owner's O(n) relation scan.
			st = da.SnapshotMeta()
		}
		snap.Owner = &OwnerExtra{
			NextRID:      st.NextRID,
			MultiPending: st.MultiPending,
			PubSeq:       st.Pub.Seq,
			PubLastTS:    st.Pub.LastTS,
			PubCur:       st.Pub.Cur,
			PubTouched:   st.Pub.Touched,
			PubMaxHist:   st.Pub.MaxHist,
		}
	}
	return snap, nil
}

// OwnerState converts the snapshot into the core restore form for the
// data aggregator. Nil when the snapshot carries no owner block.
func (s *Snapshot) OwnerState() *core.OwnerState {
	if s.Owner == nil {
		return nil
	}
	hist := s.Summaries
	if s.Owner.PubMaxHist > 0 && len(hist) > s.Owner.PubMaxHist {
		hist = hist[len(hist)-s.Owner.PubMaxHist:]
	}
	return &core.OwnerState{
		NextRID:      s.Owner.NextRID,
		Records:      s.Records,
		MultiPending: s.Owner.MultiPending,
		Pub: &freshness.PublisherState{
			Seq:     s.Owner.PubSeq,
			LastTS:  s.Owner.PubLastTS,
			Cur:     s.Owner.PubCur,
			Touched: s.Owner.PubTouched,
			History: hist,
			MaxHist: s.Owner.PubMaxHist,
		},
	}
}

// ServerState converts the snapshot into the core restore form for the
// query server.
func (s *Snapshot) ServerState() *core.ServerState {
	return &core.ServerState{Records: s.Records, Summaries: s.Summaries}
}

func encodeSnapshot(s *Snapshot) ([]byte, error) {
	buf := []byte(snapMagic)
	buf = binary.BigEndian.AppendUint64(buf, s.LSN)
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.TS))

	msgBytes := wire.AppendUpdateMsg(wire.GetBuffer(), &core.UpdateMsg{TS: s.TS, Upserts: s.Records})
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(msgBytes)))
	buf = append(buf, msgBytes...)
	wire.PutBuffer(msgBytes)

	sumBytes := wire.AppendSummaries(wire.GetBuffer(), s.Summaries)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(sumBytes)))
	buf = append(buf, sumBytes...)
	wire.PutBuffer(sumBytes)

	if s.Owner == nil {
		buf = append(buf, 0)
	} else {
		o := s.Owner
		buf = append(buf, 1)
		buf = binary.BigEndian.AppendUint64(buf, o.NextRID)
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(o.MultiPending)))
		for _, slot := range o.MultiPending {
			buf = binary.BigEndian.AppendUint64(buf, uint64(slot))
		}
		buf = binary.BigEndian.AppendUint64(buf, o.PubSeq)
		buf = binary.BigEndian.AppendUint64(buf, uint64(o.PubLastTS))
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(o.PubCur)))
		buf = append(buf, o.PubCur...)
		// Touched is emitted slot-ascending so identical states encode
		// identically (map order would defeat byte-level comparisons).
		slots := make([]int, 0, len(o.PubTouched))
		for slot := range o.PubTouched {
			slots = append(slots, slot)
		}
		for i := 1; i < len(slots); i++ { // insertion sort: small maps
			for j := i; j > 0 && slots[j] < slots[j-1]; j-- {
				slots[j], slots[j-1] = slots[j-1], slots[j]
			}
		}
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(slots)))
		for _, slot := range slots {
			buf = binary.BigEndian.AppendUint64(buf, uint64(slot))
			buf = binary.BigEndian.AppendUint64(buf, uint64(o.PubTouched[slot]))
		}
		buf = binary.BigEndian.AppendUint64(buf, uint64(o.PubMaxHist))
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[len(snapMagic):]))
	return buf, nil
}

// snapReader is a bounds-checked cursor over the snapshot body.
type snapReader struct {
	data []byte
	off  int
}

func (r *snapReader) u64() (uint64, error) {
	if r.off+8 > len(r.data) {
		return 0, fmt.Errorf("%w: truncated snapshot", ErrCorrupt)
	}
	v := binary.BigEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

func (r *snapReader) u8() (byte, error) {
	if r.off >= len(r.data) {
		return 0, fmt.Errorf("%w: truncated snapshot", ErrCorrupt)
	}
	v := r.data[r.off]
	r.off++
	return v, nil
}

func (r *snapReader) bytes() ([]byte, error) {
	n, err := r.u64()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.off) {
		return nil, fmt.Errorf("%w: truncated snapshot field (%d bytes)", ErrCorrupt, n)
	}
	out := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return out, nil
}

func decodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	body, tail := data[len(snapMagic):len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: snapshot CRC mismatch", ErrCorrupt)
	}
	r := &snapReader{data: body}
	s := &Snapshot{}
	lsn, err := r.u64()
	if err != nil {
		return nil, err
	}
	ts, err := r.u64()
	if err != nil {
		return nil, err
	}
	s.LSN, s.TS = lsn, int64(ts)
	msgBytes, err := r.bytes()
	if err != nil {
		return nil, err
	}
	msg, err := wire.DecodeUpdateMsg(msgBytes)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot records: %w", err)
	}
	s.Records = msg.Upserts
	sumBytes, err := r.bytes()
	if err != nil {
		return nil, err
	}
	if s.Summaries, err = wire.DecodeSummaries(sumBytes); err != nil {
		return nil, fmt.Errorf("wal: snapshot summaries: %w", err)
	}
	hasOwner, err := r.u8()
	if err != nil {
		return nil, err
	}
	if hasOwner == 1 {
		o := &OwnerExtra{}
		if o.NextRID, err = r.u64(); err != nil {
			return nil, err
		}
		nMulti, err := r.u64()
		if err != nil {
			return nil, err
		}
		if nMulti > uint64(len(body)) {
			return nil, fmt.Errorf("%w: multi-pending count %d", ErrCorrupt, nMulti)
		}
		for i := uint64(0); i < nMulti; i++ {
			slot, err := r.u64()
			if err != nil {
				return nil, err
			}
			o.MultiPending = append(o.MultiPending, int(slot))
		}
		if o.PubSeq, err = r.u64(); err != nil {
			return nil, err
		}
		lastTS, err := r.u64()
		if err != nil {
			return nil, err
		}
		o.PubLastTS = int64(lastTS)
		cur, err := r.bytes()
		if err != nil {
			return nil, err
		}
		o.PubCur = append([]byte(nil), cur...)
		nTouched, err := r.u64()
		if err != nil {
			return nil, err
		}
		if nTouched > uint64(len(body)) {
			return nil, fmt.Errorf("%w: touched count %d", ErrCorrupt, nTouched)
		}
		o.PubTouched = make(map[int]int, nTouched)
		for i := uint64(0); i < nTouched; i++ {
			slot, err := r.u64()
			if err != nil {
				return nil, err
			}
			cnt, err := r.u64()
			if err != nil {
				return nil, err
			}
			o.PubTouched[int(slot)] = int(cnt)
		}
		maxHist, err := r.u64()
		if err != nil {
			return nil, err
		}
		o.PubMaxHist = int(maxHist)
		s.Owner = o
	} else if hasOwner != 0 {
		return nil, fmt.Errorf("%w: bad owner flag %d", ErrCorrupt, hasOwner)
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing snapshot bytes", ErrCorrupt, len(body)-r.off)
	}
	return s, nil
}

// Store is a durable state directory: one snapshot file plus the
// segmented write-ahead log, held under an exclusive advisory lock.
type Store struct {
	dir  string
	log  *Log
	lock *os.File
}

// Open opens (creating if needed) the store in dir, taking an
// exclusive lock — a second process opening the same directory gets a
// clean "in use" error instead of interleaving (and corrupting) the
// active segment. A stale temporary snapshot from an interrupted
// replacement is removed; the log's torn tail, if any, is truncated
// (see OpenLog).
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	os.Remove(filepath.Join(dir, snapTmp)) // interrupted replacement
	log, err := OpenLog(dir, opts)
	if err != nil {
		unlockDir(lock)
		return nil, err
	}
	return &Store{dir: dir, log: log, lock: lock}, nil
}

// Log exposes the underlying write-ahead log.
func (s *Store) Log() *Log { return s.log }

// LastLSN reports the last assigned log sequence number.
func (s *Store) LastLSN() uint64 { return s.log.LastLSN() }

// Empty reports whether the store holds no state at all (no snapshot
// and no log records) — a fresh directory needing an initial load.
func (s *Store) Empty() bool {
	if s.log.LastLSN() > 0 {
		return false
	}
	_, err := os.Stat(filepath.Join(s.dir, snapName))
	return os.IsNotExist(err)
}

// AppendMsg logs one dissemination message (durable per the
// group-commit policy) and returns its LSN.
func (s *Store) AppendMsg(msg *core.UpdateMsg) (uint64, error) {
	buf := wire.AppendUpdateMsg(wire.GetBuffer(), msg)
	lsn, err := s.log.Append(KindUpdate, buf)
	wire.PutBuffer(buf)
	return lsn, err
}

// Sync forces the log's durability fence.
func (s *Store) Sync() error { return s.log.Sync() }

// LoadSnapshot reads the current snapshot image (nil when none exists).
func (s *Store) LoadSnapshot() (*Snapshot, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, snapName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(data)
}

// WriteSnapshot atomically replaces the snapshot image, then rotates
// the log and deletes the sealed segments the new image fully covers.
// Concurrent appends are safe: records past snap.LSN live in segments
// the truncation never touches. Callers serialize WriteSnapshot calls
// themselves (one background snapshot at a time).
func (s *Store) WriteSnapshot(snap *Snapshot) error {
	data, err := encodeSnapshot(snap)
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, snapTmp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if !s.log.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName)); err != nil {
		return err
	}
	if !s.log.opts.NoSync {
		if d, err := os.Open(s.dir); err == nil {
			d.Sync() // make the rename durable; best-effort by platform
			d.Close()
		}
	}
	if err := s.log.Rotate(); err != nil {
		return err
	}
	return s.log.DropThrough(snap.LSN)
}

// RecoveryStats reports what a Recover call did.
type RecoveryStats struct {
	SnapshotLSN uint64 // watermark of the restored image (0 = no snapshot)
	Records     int    // records in the restored image
	Summaries   int    // summaries in the restored image
	Replayed    int    // log messages applied past the watermark
	Skipped     int    // log messages at or below the watermark (overlap)
	LastLSN     uint64 // log position after recovery
}

// Recover rebuilds live components from the store: the snapshot image
// first, then a replay of the full log in which only messages past the
// snapshot's watermark are applied. The watermark — not any in-place
// idempotence — is what makes an overlapping log tail safe: replaying a
// message the snapshot already folds in would double-count the
// freshness bookkeeping (see core.DataAggregator.ReplayMsg). Either
// party may be nil.
func (s *Store) Recover(da *core.DataAggregator, qs *core.QueryServer) (RecoveryStats, error) {
	var st RecoveryStats
	snap, err := s.LoadSnapshot()
	if err != nil {
		return st, err
	}
	var after uint64
	if snap != nil {
		after = snap.LSN
		st.SnapshotLSN = snap.LSN
		st.Records = len(snap.Records)
		st.Summaries = len(snap.Summaries)
		// A log sitting below the watermark (segments lost while the
		// snapshot survived) must not hand out LSNs the replay filter
		// would skip on the next recovery.
		if err := s.log.EnsureLSN(snap.LSN); err != nil {
			return st, err
		}
		if da != nil {
			owner := snap.OwnerState()
			if owner == nil {
				return st, fmt.Errorf("wal: snapshot carries no owner state")
			}
			if err := da.Restore(owner); err != nil {
				return st, err
			}
		}
		if qs != nil {
			if err := qs.Restore(snap.ServerState()); err != nil {
				return st, err
			}
		}
	}
	err = s.log.Replay(func(lsn uint64, kind byte, body []byte) error {
		if kind != KindUpdate {
			return nil // unknown record kinds are future extensions
		}
		if lsn <= after {
			st.Skipped++
			return nil
		}
		msg, err := wire.DecodeUpdateMsg(body)
		if err != nil {
			return fmt.Errorf("wal: replay lsn %d: %w", lsn, err)
		}
		if da != nil {
			if err := da.ReplayMsg(msg); err != nil {
				return fmt.Errorf("wal: replay lsn %d (owner): %w", lsn, err)
			}
		}
		if qs != nil {
			if err := qs.Apply(msg); err != nil {
				return fmt.Errorf("wal: replay lsn %d (server): %w", lsn, err)
			}
		}
		st.Replayed++
		return nil
	})
	st.LastLSN = s.log.LastLSN()
	return st, err
}

// Close closes the underlying log and releases the store lock.
func (s *Store) Close() error {
	err := s.log.Close()
	unlockDir(s.lock)
	s.lock = nil
	return err
}
