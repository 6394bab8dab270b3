package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"authdb/internal/core"
	"authdb/internal/wire"
)

// The snapshot file ("snapshot" in the store directory) is one
// point-in-time image plus the LSN watermark of the last log record it
// folds in:
//
//	| magic | u64 LSN | i64 TS | image | owner block | u32 CRC |
//
// The image is the relation image of internal/wire — the bytes a
// follower is bootstrapped from, records and the certified filter through
// the dissemination codec and summaries through the batch codec — and the
// owner block is wire's
// too, so a snapshot is readable by anything that can parse the
// protocol. Replacement is atomic: written to "snapshot.tmp", fsynced,
// renamed over the old image, directory fsynced. A crash leaves either
// the old snapshot or the new one, never a blend; the trailing CRC turns
// any partial write that does surface into a loud error instead of a
// silent half-state.

// snapMagic names the layout; a file written under another is refused.
const snapMagic = "ASNP6\n"

// snapName and snapTmp are the snapshot file names within a store dir.
const (
	snapName = "snapshot"
	snapTmp  = "snapshot.tmp"
)

// Snapshot is one durable image of the pipeline's state, in the forms
// the two parties restore from. The file stores the records once:
// Owner.Records is Server.Records. The summary stream is the server's
// alone; the owner keeps no copy of it.
type Snapshot struct {
	LSN    uint64 // last log record folded into this image
	TS     int64  // logical time the image was taken
	Server *core.ServerState
	Owner  *core.OwnerState
}

// Capture builds a snapshot from live components at the given watermark
// and logical time. The record image is the server's — identical to the
// owner's by construction, since the owner disseminates every signature
// it creates — which spares the owner an O(n) relation scan on the
// writer's critical path. The error is always nil: the signature is the
// one benchmark/ compiles against.
func Capture(da *core.DataAggregator, qs *core.QueryServer, lsn uint64, ts int64) (*Snapshot, error) {
	snap := &Snapshot{LSN: lsn, TS: ts, Server: qs.Snapshot(), Owner: da.SnapshotMeta()}
	snap.Owner.Records = snap.Server.Records
	return snap, nil
}

func encodeSnapshot(s *Snapshot) []byte {
	buf := []byte(snapMagic)
	buf = binary.BigEndian.AppendUint64(buf, s.LSN)
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.TS))
	buf = wire.AppendImage(buf, s.Server)
	buf = wire.AppendOwnerBlock(buf, s.Owner)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[len(snapMagic):]))
}

func decodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic)+16+4 || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	body, tail := data[len(snapMagic):len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: snapshot CRC mismatch", ErrCorrupt)
	}
	s := &Snapshot{LSN: binary.BigEndian.Uint64(body), TS: int64(binary.BigEndian.Uint64(body[8:]))}
	var rest []byte
	var err error
	if s.Server, rest, err = wire.DecodeImage(body[16:]); err != nil {
		return nil, fmt.Errorf("%w: snapshot image: %w", ErrCorrupt, err)
	}
	if s.Owner, err = wire.DecodeOwnerBlock(rest); err != nil {
		return nil, fmt.Errorf("%w: snapshot owner block: %w", ErrCorrupt, err)
	}
	s.Owner.Records = s.Server.Records
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
	lsn, err := s.log.Append(buf)
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
	data := encodeSnapshot(snap)
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
// freshness bookkeeping (see core.DataAggregator.ReplayMsg).
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
		st.Records = len(snap.Server.Records)
		st.Summaries = len(snap.Server.Summaries)
		// A log sitting below the watermark (segments lost while the
		// snapshot survived) must not hand out LSNs the replay filter
		// would skip on the next recovery.
		if err := s.log.EnsureLSN(snap.LSN); err != nil {
			return st, err
		}
		if err := da.Restore(snap.Owner); err != nil {
			return st, err
		}
		if err := qs.Restore(snap.Server); err != nil {
			return st, err
		}
	}
	err = s.log.Replay(func(lsn uint64, body []byte) error {
		if lsn <= after {
			st.Skipped++
			return nil
		}
		msg, err := wire.DecodeUpdateMsg(body)
		if err != nil {
			return fmt.Errorf("wal: replay lsn %d: %w", lsn, err)
		}
		if err := da.ReplayMsg(msg); err != nil {
			return fmt.Errorf("wal: replay lsn %d (owner): %w", lsn, err)
		}
		if err := qs.Apply(msg); err != nil {
			return fmt.Errorf("wal: replay lsn %d (server): %w", lsn, err)
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
