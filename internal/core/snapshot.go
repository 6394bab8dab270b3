package core

import (
	"fmt"

	"authdb/internal/aggtree"
	"authdb/internal/freshness"
	"authdb/internal/join"
	"authdb/internal/sigagg"
)

// This file is the recovery boundary: point-in-time state extraction
// and injection for both protocol parties, plus ReplayMsg, the owner's
// one state transition, live and in recovery. internal/wal persists
// these states and drives replay; everything here is storage-agnostic.
//
// The invariant that makes replay safe is a watermark, not in-place
// idempotence: a snapshot records the log sequence number (LSN) of the
// last message folded into it, and recovery replays only messages past
// that watermark. Re-applying a message would not corrupt the index —
// updates are by-key and signatures are absolute — but it WOULD
// double-count the freshness bookkeeping (Publisher.MarkUpdated's
// per-period touch counters decide which records the next ClosePeriod
// re-certifies), silently diverging a recovered owner from a
// never-crashed one. The wal package's Recover enforces the watermark;
// ReplayMsg documents the requirement for anyone else.

// OwnerState is the DataAggregator's durable state: the relation with
// its current chained signatures in key order, the rid allocator, the
// latest mark and the publisher's period state. No re-certification is
// ever pending between operations: a close re-certifies its own period's
// multi-updated slots. Private keys are deliberately absent — key
// material never touches a snapshot.
type OwnerState struct {
	NextRID  uint64
	LastMark int64          // the latest timestamp a slot was marked at
	Records  []SignedRecord // key-ascending, current signature each
	Pub      *freshness.PublisherState
}

// SnapshotMeta extracts the owner's bookkeeping — rid allocator, latest
// mark and publisher period state — leaving Records nil: the
// snapshot assembler (wal.Capture) takes the record image from the query
// server, identical by construction since the owner disseminates every
// signature it creates, and so keeps an O(n) relation scan off the
// writer's critical path. Like every DataAggregator operation it relies
// on the caller's single-writer discipline.
func (da *DataAggregator) SnapshotMeta() *OwnerState {
	return &OwnerState{
		NextRID:  da.nextRID,
		LastMark: da.lastMark,
		Pub:      da.pub.State(),
	}
}

// Restore replaces the owner's state with a snapshot: the key order and
// the slots are built from the sorted image (it appends block by block),
// the age heap is rebuilt from the record timestamps (a record's TS is
// its last certification time), and the publisher resumes mid-period.
// The whole state is checked first, so a refused one changes nothing.
// The scheme, keys, and signing pool are untouched.
func (da *DataAggregator) Restore(st *OwnerState) error {
	for i, sr := range st.Records {
		if i > 0 && sr.Rec.Key <= st.Records[i-1].Rec.Key {
			return fmt.Errorf("core: restore: records not in strict key order at %d", i)
		}
		if sr.Rec.RID > maxRID {
			return fmt.Errorf("core: restore: rid %d of key %d past %d", sr.Rec.RID, sr.Rec.Key, maxRID)
		}
		if sr.Rec.TS > st.LastMark {
			return fmt.Errorf("core: restore: key %d certified at %d, after the last mark at %d", sr.Rec.Key, sr.Rec.TS, st.LastMark)
		}
	}
	if st.Pub == nil {
		return fmt.Errorf("core: restore: no publisher state")
	}
	if err := st.Pub.Check(); err != nil {
		return err
	}
	da.order, da.bySlot, da.nextRID, da.lastMark = keyOrder{}, nil, st.NextRID, st.LastMark
	for _, sr := range st.Records {
		da.store(fullRecord(&sr))
	}
	da.compactAges()
	return da.pub.RestoreState(st.Pub)
}

// ReplayMsg applies one signed dissemination message to the owner's
// state without any signing: a live operation's, just signed, or a
// logged one, signed before the crash. It is the only way owner state
// changes after Restore, so a recovered owner is byte-identical to one
// that never crashed. Messages must be replayed in log order and only
// past the snapshot's watermark — replaying an already-folded message
// double-counts the period's update marks (see the file comment). A
// close's summary is folded first: its re-signed records open the next
// period.
func (da *DataAggregator) ReplayMsg(msg *UpdateMsg) error {
	if msg == nil {
		return nil
	}
	if msg.Summary != nil {
		multi, applied, err := da.pub.ReplaySummary(*msg.Summary)
		if err != nil {
			return err
		}
		if applied {
			da.reopen(multi, msg.TS)
		}
	}
	for _, del := range msg.Deletes {
		if rec := da.held(del.RID); rec != nil { // else deleted before the snapshot
			da.remove(rec, msg.TS)
		}
	}
	for _, sr := range msg.Upserts {
		da.install(fullRecord(&sr))
	}
	return nil
}

// fullRecord reconstitutes the owner's view of a disseminated record:
// for a projection-mode relation the chained record is attribute-stripped
// and the values ride in the sideband, so recovery folds them back in —
// the owner's state always holds full records.
func fullRecord(sr *SignedRecord) *Record {
	rec := sr.Rec
	if sr.AttrVals == nil {
		return rec
	}
	return &Record{RID: rec.RID, Key: rec.Key, Attrs: sr.AttrVals, TS: rec.TS}
}

// ServerState is the QueryServer's durable state: the signed records in
// key order (each with its §3.4 sideband, for a projection-mode
// relation), the certified summary stream and the certified filter on
// the key attribute (§3.5; nil if none was disseminated) — what a
// relation image (wire.AppendImage: the snapshot file's and the bootstrap
// frame's) carries, with the binding a server is built under. Shard
// topology, epochs and caches are runtime artifacts rebuilt on restore.
type ServerState struct {
	Binding   sigagg.Binding // the scheme and public parameter the records aggregate under
	Records   []SignedRecord // key-ascending, current signature each
	Summaries []freshness.Summary
	Filter    *join.FilterCert
}

// Snapshot extracts a consistent cut of the server: every shard's read
// lock is held simultaneously, and the summary stream is read before
// any is released, so the cut contains each applied message entirely or
// not at all.
func (qs *QueryServer) Snapshot() *ServerState {
	qs.topo.RLock()
	defer qs.topo.RUnlock()
	for _, sh := range qs.shards {
		sh.mu.RLock()
	}
	n := 0
	for _, sh := range qs.shards {
		n += sh.tree.Len()
	}
	st := &ServerState{Binding: sigagg.BindingOf(qs.scheme), Records: make([]SignedRecord, 0, n)}
	for _, sh := range qs.shards {
		sh.tree.Scan(func(e aggtree.Entry) bool {
			p := payload(e)
			sr := SignedRecord{Rec: p.rec, Sig: e.Sig}
			if p.side != nil {
				sr.AttrVals, sr.AttrSigs = p.side.Vals, p.side.Sigs
			}
			st.Records = append(st.Records, sr)
			return true
		})
	}
	qs.sumMu.RLock()
	st.Summaries = append([]freshness.Summary(nil), qs.summaries...)
	qs.sumMu.RUnlock()
	st.Filter = qs.filter.Load()
	for _, sh := range qs.shards {
		sh.mu.RUnlock()
	}
	return st
}

// Restore replaces the server's contents with a snapshot: install's
// sorted image, with the summary stream and the filter. A snapshot taken
// under another binding — another scheme, or another signer's modulus —
// is refused: its records do not aggregate under this server's scheme.
// It is safe on a live, non-empty server: the image is staged before any
// lock is taken (a refused image leaves the server as it was), the swap
// happens under the exclusive topology lock, and every data epoch and
// the filter epoch are bumped — never reset — so cache entries stamped
// before the restore can never be served again.
func (qs *QueryServer) Restore(st *ServerState) error {
	if own := sigagg.BindingOf(qs.scheme); !own.Equal(st.Binding) {
		return fmt.Errorf("core: restore: image bound to %s, server to %s", st.Binding, own)
	}
	return qs.install(st.Records, nil, st)
}
