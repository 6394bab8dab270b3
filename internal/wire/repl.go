package wire

// Replication frames: an untrusted follower replica subscribes to the
// primary's dissemination feed and mirrors its serving state. The
// follower needs no trust — it re-serves owner-signed records and
// owner-certified summaries, and clients verify everything — so the
// feed carries no authentication of its own beyond the owner
// signatures already inside every record and summary.
//
//	'R'  follower -> primary   subscribe to one named relation, resuming after a known LSN
//	'B'  primary  -> follower  bootstrap: LSN + the relation image (image.go)
//	'W'  primary  -> follower  one WAL record (LSN + UpdateMsg)
//	'H'  primary  -> follower  heartbeat carrying the primary's LSN
//
// A subscription names one relation and the primary keeps a feed and an
// LSN space per relation, so nothing after 'R' says which relation it is
// about (package replica has the why). A 'W' frame piggybacks the primary's current last LSN so a follower
// can expose its replication lag even while records stream; 'H' keeps
// the lag observable when the feed is idle.

import (
	"fmt"

	"authdb/internal/core"
)

// ---- ReplSubReq (follower -> primary) ----

// AppendReplSubReq appends a subscription to relation rel's feed resuming
// after afterLSN (0 = from nothing; the primary decides whether to
// bootstrap a fresh image or tail its log).
func AppendReplSubReq(buf []byte, rel string, afterLSN uint64) []byte {
	w := &writer{buf: buf}
	w.u8(Version)
	w.u8(KindReplSubscribe)
	w.bytes([]byte(rel))
	w.u64(afterLSN)
	return w.buf
}

// DecodeReplSubReq parses a replication subscription request.
func DecodeReplSubReq(data []byte) (rel string, afterLSN uint64, err error) {
	r := &reader{buf: data}
	if err := header(r, KindReplSubscribe); err != nil {
		return "", 0, err
	}
	name, err := r.relName()
	if err != nil {
		return "", 0, err
	}
	if afterLSN, err = r.u64(); err != nil {
		return "", 0, err
	}
	return string(name), afterLSN, r.done()
}

// ---- Bootstrap (primary -> follower) ----

// AppendBootstrap appends a bootstrap frame: the relation image
// (image.go) as of lsn. The follower installs it via
// core.QueryServer.Restore and resumes tailing from lsn.
func AppendBootstrap(buf []byte, lsn uint64, st *core.ServerState) []byte {
	w := &writer{buf: buf}
	w.u8(Version)
	w.u8(KindReplBootstrap)
	w.u64(lsn)
	return AppendImage(w.buf, st)
}

// DecodeBootstrap parses a bootstrap frame.
func DecodeBootstrap(data []byte) (uint64, *core.ServerState, error) {
	r := &reader{buf: data}
	if err := header(r, KindReplBootstrap); err != nil {
		return 0, nil, err
	}
	lsn, err := r.u64()
	if err != nil {
		return 0, nil, err
	}
	st, rest, err := DecodeImage(data[r.off:])
	if err != nil {
		return 0, nil, err
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return lsn, st, nil
}

// ---- WalRecord (primary -> follower) ----

// AppendWalRecord appends one replicated WAL record: its LSN, the
// primary's last LSN at send time (for follower lag accounting), and
// the dissemination message encoded by AppendUpdateMsg — nested as a
// length-prefixed blob so the primary encodes once and fans the same
// bytes out to every subscriber.
func AppendWalRecord(buf []byte, lsn, primaryLSN uint64, msgData []byte) []byte {
	w := &writer{buf: buf}
	w.u8(Version)
	w.u8(KindReplRecord)
	w.u64(lsn)
	w.u64(primaryLSN)
	w.bytes(msgData)
	return w.buf
}

// DecodeWalRecord parses one replicated WAL record.
func DecodeWalRecord(data []byte) (lsn, primaryLSN uint64, msg *core.UpdateMsg, err error) {
	r := &reader{buf: data}
	if err = header(r, KindReplRecord); err != nil {
		return 0, 0, nil, err
	}
	if lsn, err = r.u64(); err != nil {
		return 0, 0, nil, err
	}
	if primaryLSN, err = r.u64(); err != nil {
		return 0, 0, nil, err
	}
	body, err := r.bytes()
	if err != nil {
		return 0, 0, nil, err
	}
	if err = r.done(); err != nil {
		return 0, 0, nil, err
	}
	msg, err = DecodeUpdateMsg(body)
	if err != nil {
		return 0, 0, nil, err
	}
	return lsn, primaryLSN, msg, nil
}

// ---- ReplHeartbeat (primary -> follower) ----

// AppendReplHeartbeat appends an idle-feed heartbeat carrying the
// primary's last LSN.
func AppendReplHeartbeat(buf []byte, primaryLSN uint64) []byte {
	w := &writer{buf: buf}
	w.u8(Version)
	w.u8(KindReplHeartbeat)
	w.u64(primaryLSN)
	return w.buf
}

// DecodeReplHeartbeat parses a replication heartbeat.
func DecodeReplHeartbeat(data []byte) (uint64, error) {
	r := &reader{buf: data}
	if err := header(r, KindReplHeartbeat); err != nil {
		return 0, err
	}
	lsn, err := r.u64()
	if err != nil {
		return 0, err
	}
	return lsn, r.done()
}
