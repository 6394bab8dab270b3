// Package wal makes the owner–server pipeline durable: an append-only,
// CRC-guarded write-ahead log of the protocol's own dissemination
// messages plus point-in-time snapshots, so a restarted process reaches
// its pre-crash state from local disk without re-contacting anyone.
//
// The log is segmented. Each segment file ("wal-<firstLSN>.log") starts
// with a magic string and carries length-prefixed frames:
//
//	| u32 payload len | u32 CRC32(payload) | payload |
//	payload = | u64 LSN | body |
//
// A body is a wire-encoded core.UpdateMsg — the one artifact every owner
// operation (load, update, delete, period close, renewal) already emits
// across the trust boundary — which names its own kind.
//
// LSNs are assigned contiguously across segments, so replay can verify
// it saw every record and recovery can skip everything a snapshot
// already folded in. A torn tail — the partial final frame a crash
// leaves behind — is detected by the length/CRC pair and truncated away
// on open; the log always resumes from the last complete record.
//
// Durability is group-committed: appends return once the record is in
// the OS buffer, and a background committer fsyncs the tail every
// Options.GroupCommit. Sync forces the fence — callers do so before
// externalizing state that must survive (e.g. a certified summary a
// client will anchor freshness on). GroupCommit zero degrades to
// fsync-per-append.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	segMagic   = "AWAL4\n"
	segPrefix  = "wal-"
	segSuffix  = ".log"
	frameHdr   = 8 // u32 len + u32 crc
	framePfx   = 8 // u64 lsn
	defaultMax = 64 << 20
)

// ErrCorrupt wraps any structural damage the log cannot recover from
// (interior segments with torn tails, sequence gaps, bad magic).
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

// Options bounds a log's behavior.
type Options struct {
	// GroupCommit is the fsync batching window: appends return
	// immediately and a background committer makes the tail durable at
	// this cadence, so the append hot path is never serialized on disk.
	// 0 means full write-ahead durability: every append fsyncs before
	// returning.
	GroupCommit time.Duration
	// NoSync skips fsync entirely (benchmark baselines and tests on
	// throwaway state). Crash durability is then whatever the OS page
	// cache grants.
	NoSync bool
	// MaxRecord caps one frame's payload (0 = 64 MiB).
	MaxRecord int
}

func (o Options) maxRecord() int {
	if o.MaxRecord > 0 {
		return o.MaxRecord
	}
	return defaultMax
}

// segment is one log file; its records are [first, nextFirst).
type segment struct {
	path  string
	first uint64 // LSN of the first record the segment may hold
	size  int64  // valid byte length (post torn-tail scan)
}

// Log is the append side of the write-ahead log.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	segs    []segment // ascending; last is the active segment
	f       *os.File  // active segment, positioned at its end
	wbuf    []byte    // pending (written-to-buffer, not yet to file) bytes
	lsn     uint64    // last assigned LSN
	durable uint64    // last fsynced LSN
	dirty   bool
	syncErr error // sticky background fsync failure
	closed  bool

	stop chan struct{}
	done chan struct{}
}

func segName(first uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, first, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// OpenLog opens (creating if needed) the log in dir: every segment is
// scanned and CRC-verified, the active segment's torn tail (if any) is
// truncated to the last complete record, and the log is positioned for
// append. Interior damage — a bad frame that is not the tail of the
// final segment — is ErrCorrupt: silently skipping records would
// resurrect a state the owner never published.
func OpenLog(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, de := range names {
		if first, ok := parseSegName(de.Name()); ok {
			segs = append(segs, segment{path: filepath.Join(dir, de.Name()), first: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })

	l := &Log{dir: dir, opts: opts}
	// A crash during segment creation can leave a final file shorter
	// than the magic string; drop it (it holds no records) so the scan
	// below sees only well-formed segments.
	if last := len(segs) - 1; last >= 0 {
		if fi, err := os.Stat(segs[last].path); err == nil && fi.Size() < int64(len(segMagic)) {
			if err := os.Remove(segs[last].path); err != nil {
				return nil, err
			}
			segs = segs[:last]
		}
	}
	if len(segs) == 0 {
		if err := l.newSegment(1); err != nil {
			return nil, err
		}
	} else {
		expect := segs[0].first
		for i := range segs {
			if segs[i].first != expect {
				return nil, fmt.Errorf("%w: segment %s does not continue LSN %d", ErrCorrupt, segs[i].path, expect)
			}
			end, last, clean, err := scanSegment(segs[i].path, segs[i].first, opts.maxRecord(), nil)
			if err != nil {
				return nil, err
			}
			segs[i].size = end
			if last >= expect {
				expect = last + 1
			}
			if !clean && i != len(segs)-1 {
				return nil, fmt.Errorf("%w: interior segment %s has a torn tail", ErrCorrupt, segs[i].path)
			}
		}
		l.segs = segs
		l.lsn = expect - 1
		tail := &l.segs[len(l.segs)-1]
		f, err := os.OpenFile(tail.path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		if err := f.Truncate(tail.size); err != nil { // drop the torn tail
			f.Close()
			return nil, err
		}
		if _, err := f.Seek(tail.size, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		l.f = f
	}
	l.durable = l.lsn
	if opts.GroupCommit > 0 {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.committer()
	}
	return l, nil
}

// newSegment creates and activates a fresh segment whose first record
// will be LSN first. Caller holds mu (or owns the log exclusively).
func (l *Log) newSegment(first uint64) error {
	path := filepath.Join(l.dir, segName(first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	if !l.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		// Make the directory entry durable too: a crash must not forget
		// the active segment while remembering deletions around it.
		if d, err := os.Open(l.dir); err == nil {
			d.Sync() // best-effort by platform
			d.Close()
		}
	}
	l.f = f
	l.segs = append(l.segs, segment{path: path, first: first, size: int64(len(segMagic))})
	return nil
}

// scanSegment walks one segment's frames, validating lengths, CRCs and
// LSN continuity starting at first. It returns the byte offset just
// past the last valid frame, the last valid LSN (first-1 when the
// segment holds none), and whether the scan consumed the whole file
// (clean) or stopped at a torn/corrupt tail. fn, when non-nil, receives
// every valid frame.
func scanSegment(path string, first uint64, maxRecord int, fn func(lsn uint64, body []byte) error) (int64, uint64, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, err
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return 0, 0, false, fmt.Errorf("%w: %s: bad segment magic", ErrCorrupt, path)
	}
	off := int64(len(segMagic))
	lsn := first - 1
	for {
		rest := data[off:]
		if len(rest) < frameHdr {
			return off, lsn, len(rest) == 0, nil
		}
		n := int(binary.BigEndian.Uint32(rest))
		crc := binary.BigEndian.Uint32(rest[4:])
		if n < framePfx || n > maxRecord || len(rest) < frameHdr+n {
			return off, lsn, false, nil
		}
		payload := rest[frameHdr : frameHdr+n]
		if crc32.ChecksumIEEE(payload) != crc {
			return off, lsn, false, nil
		}
		recLSN := binary.BigEndian.Uint64(payload)
		if recLSN != lsn+1 {
			return off, lsn, false, nil
		}
		if fn != nil {
			if err := fn(recLSN, payload[framePfx:]); err != nil {
				return off, lsn, false, err
			}
		}
		lsn = recLSN
		off += int64(frameHdr + n)
	}
}

// Append assigns the next LSN to one record and writes its frame. The
// record is durable per the group-commit policy; callers needing the
// fence now follow with Sync. A sticky background fsync failure
// surfaces here: after it, no append succeeds (the log refuses to
// acknowledge writes it may not be able to keep).
func (l *Log) Append(body []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.syncErr != nil {
		return 0, l.syncErr
	}
	if len(body)+framePfx > l.opts.maxRecord() {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(body), l.opts.maxRecord())
	}
	l.lsn++
	var pfx [frameHdr + framePfx]byte
	binary.BigEndian.PutUint32(pfx[0:], uint32(framePfx+len(body)))
	binary.BigEndian.PutUint64(pfx[frameHdr:], l.lsn)
	crc := crc32.ChecksumIEEE(pfx[frameHdr:])
	crc = crc32.Update(crc, crc32.IEEETable, body)
	binary.BigEndian.PutUint32(pfx[4:], crc)
	l.wbuf = append(l.wbuf, pfx[:]...)
	l.wbuf = append(l.wbuf, body...)
	l.dirty = true
	if l.opts.GroupCommit <= 0 {
		if err := l.commitLocked(); err != nil {
			return 0, err
		}
	}
	return l.lsn, nil
}

// commitLocked flushes buffered frames to the active segment and
// fsyncs. Caller holds mu.
func (l *Log) commitLocked() error {
	if !l.dirty {
		return nil
	}
	if len(l.wbuf) > 0 {
		if _, err := l.f.Write(l.wbuf); err != nil {
			l.syncErr = err
			return err
		}
		l.segs[len(l.segs)-1].size += int64(len(l.wbuf))
		if cap(l.wbuf) > 4<<20 {
			l.wbuf = nil
		} else {
			l.wbuf = l.wbuf[:0]
		}
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			l.syncErr = err
			return err
		}
	}
	l.durable = l.lsn
	l.dirty = false
	return nil
}

// committer is the group-commit loop.
func (l *Log) committer() {
	defer close(l.done)
	tick := time.NewTicker(l.opts.GroupCommit)
	defer tick.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-tick.C:
		}
		l.mu.Lock()
		if !l.closed {
			l.commitLocked() // sticky error surfaces via Append/Sync
		}
		l.mu.Unlock()
	}
}

// Sync forces the durability fence: everything appended so far is
// fsynced before it returns.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.syncErr != nil {
		return l.syncErr
	}
	return l.commitLocked()
}

// LastLSN reports the last assigned LSN (0 when the log is empty).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// DurableLSN reports the last fsynced LSN.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// FirstLSN reports the LSN of the earliest record still present (0
// when the log is empty). Records below it were truncated away by
// DropThrough after a snapshot covered them; a reader that needs
// history from before FirstLSN must start from a snapshot instead.
func (l *Log) FirstLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) == 0 || l.lsn == 0 {
		return 0
	}
	if first := l.segs[0].first; first <= l.lsn {
		return first
	}
	return 0 // nothing recorded yet past the truncation point
}

// Rotate seals the active segment and starts a new one. Cheap: one
// fsync of the old tail plus a file create. Called after a snapshot so
// DropThrough can later delete fully-covered segments.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.commitLocked(); err != nil {
		return err
	}
	if l.segs[len(l.segs)-1].first == l.lsn+1 {
		return nil // active segment holds nothing yet; nothing to seal
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.newSegment(l.lsn + 1)
}

// EnsureLSN fast-forwards LSN assignment past lsn. Recovery calls this
// with the snapshot watermark: if the log somehow sits below it (all
// segments lost while the snapshot survived — a torn directory, a
// partial copy), new appends would otherwise reuse LSNs at or below
// the watermark and be silently classified as snapshot overlap by the
// NEXT recovery. Every record currently in such a log is ≤ the
// watermark (already folded into the snapshot), so the segments are
// dropped wholesale and a fresh one starts at lsn+1.
func (l *Log) EnsureLSN(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if lsn <= l.lsn {
		return nil
	}
	if err := l.commitLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	for _, seg := range l.segs {
		if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	l.segs = nil
	l.lsn = lsn
	l.durable = lsn
	return l.newSegment(lsn + 1)
}

// DropThrough deletes sealed segments whose every record has LSN ≤
// watermark (records a durable snapshot already folds in). The active
// segment is never deleted.
func (l *Log) DropThrough(watermark uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	kept := l.segs[:0]
	for i := range l.segs {
		last := len(l.segs) - 1
		// Segment i's records are < segs[i+1].first.
		if i < last && l.segs[i+1].first <= watermark+1 {
			if err := os.Remove(l.segs[i].path); err != nil && !os.IsNotExist(err) {
				return err
			}
			continue
		}
		kept = append(kept, l.segs[i])
	}
	l.segs = kept
	return nil
}

// Replay streams every committed record, in LSN order, through fn.
// Intended for recovery (before appends resume); it also works on a
// live log — buffered frames are flushed first so fn sees everything
// appended so far.
func (l *Log) Replay(fn func(lsn uint64, body []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if len(l.wbuf) > 0 {
		if _, err := l.f.Write(l.wbuf); err != nil {
			l.syncErr = err
			return err
		}
		l.segs[len(l.segs)-1].size += int64(len(l.wbuf))
		l.wbuf = l.wbuf[:0]
	}
	for _, seg := range l.segs {
		if _, _, _, err := scanSegment(seg.path, seg.first, l.opts.maxRecord(), fn); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes, fsyncs and closes the log. Further operations return
// ErrClosed.
func (l *Log) Close() error {
	if l.stop != nil {
		close(l.stop)
		<-l.done
		l.stop = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.commitLocked()
	l.closed = true
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
