package wal

import (
	"fmt"

	"authdb/internal/core"
)

// Feed is the replication hub a Runtime publishes applied messages to
// (replica.Source; declared here because replica imports wal).
type Feed interface {
	Publish(lsn uint64, msg *core.UpdateMsg)
}

// Runtime owns the durable life of one relation: the owner → log →
// server → feed pipeline of the paper's system model, written once.
// Boot is Recover or, on an empty store, Load; after that every
// dissemination message goes through Deliver. A nil store is the
// in-memory case and a nil feed the unreplicated one — the same path
// with those steps skipped, not separate code.
//
// A Runtime is single-writer, like the DataAggregator it wraps: the
// caller delivers each message before asking the owner for the next, so
// the owner and the server agree between any two Deliver calls. That is
// the only cut at which a snapshot is taken.
type Runtime struct {
	DA *core.DataAggregator
	QS *core.QueryServer

	store     *Store
	feed      Feed
	snapEvery int

	lsn       uint64 // last delivered message (the store's LSN when durable)
	ts        int64  // logical time of the last delivered or recovered message
	sinceSnap int    // messages logged since the last snapshot capture

	// snapDone delivers the outcome of the background snapshot write in
	// flight; nil when there is none.
	snapDone chan error
}

// NewRuntime wraps an empty owner/server pair. store may be nil
// (nothing survives the process); the runtime closes it in Close.
// snapEvery > 0 takes a background snapshot, truncating the log behind
// it, every that many logged messages.
func NewRuntime(da *core.DataAggregator, qs *core.QueryServer, store *Store, snapEvery int) *Runtime {
	return &Runtime{DA: da, QS: qs, store: store, snapEvery: snapEvery}
}

// Recover rebuilds the pair from the store — snapshot, then the log
// tail — and reports false when there is nothing to recover (no store,
// or an empty one: the caller loads instead). A replayed tail is folded
// into a fresh snapshot before Recover returns, so a server that keeps
// dying short of its next periodic snapshot replays a tail that does
// not grow from boot to boot.
func (rt *Runtime) Recover() (RecoveryStats, bool, error) {
	if rt.store == nil || rt.store.Empty() {
		return RecoveryStats{}, false, nil
	}
	st, err := rt.store.Recover(rt.DA, rt.QS)
	if err != nil {
		return st, false, err
	}
	rt.lsn = rt.store.LastLSN()
	snap, err := Capture(rt.DA, rt.QS, rt.lsn, 0)
	if err != nil {
		return st, false, err
	}
	for i := range snap.Server.Records {
		rt.ts = max(rt.ts, snap.Server.Records[i].Rec.TS)
	}
	for i := range snap.Server.Summaries {
		rt.ts = max(rt.ts, snap.Server.Summaries[i].TS)
	}
	if fc := snap.Server.Filter; fc != nil {
		rt.ts = max(rt.ts, fc.TS)
	}
	snap.TS = rt.ts
	if st.Replayed > 0 || st.Skipped > 0 {
		if err := rt.store.WriteSnapshot(snap); err != nil {
			return st, false, err
		}
	}
	return st, true, nil
}

// Load applies the initial population (a bulk load and whatever closes
// its first period) to a fresh runtime. The messages are not logged:
// together they become LSN 1 of the relation's history, held by the
// first snapshot rather than by one giant log record, and the log
// starts at LSN 2 — so a follower that holds nothing can never mistake
// the log for the whole history.
func (rt *Runtime) Load(msgs ...*core.UpdateMsg) error {
	if rt.lsn != 0 {
		return fmt.Errorf("wal: Load on a runtime already at lsn %d", rt.lsn)
	}
	for _, msg := range msgs {
		if err := rt.QS.Apply(msg); err != nil {
			return err
		}
		rt.ts = msg.TS
	}
	rt.lsn = 1
	if rt.store == nil {
		return nil
	}
	snap, err := Capture(rt.DA, rt.QS, rt.lsn, rt.ts)
	if err != nil {
		return err
	}
	if err := rt.store.WriteSnapshot(snap); err != nil {
		return err
	}
	// Snapshot first: a crash between the two steps leaves an image
	// whose watermark Recover fast-forwards the log past, where the
	// other order would leave a non-empty log and no image at all.
	return rt.store.log.EnsureLSN(rt.lsn)
}

// SetFeed attaches the replication hub. Attach it after boot and before
// the first Deliver.
func (rt *Runtime) SetFeed(f Feed) { rt.feed = f }

// LSN reports the last delivered (or recovered) message's sequence
// number; in memory the runtime counts them itself.
func (rt *Runtime) LSN() uint64 { return rt.lsn }

// TS reports the logical time the relation has reached: a writer
// resuming after Recover stamps its next message past it.
func (rt *Runtime) TS() int64 { return rt.ts }

// Log exposes the write-ahead log (nil in memory), for the replication
// hub's tail catch-up.
func (rt *Runtime) Log() *Log {
	if rt.store == nil {
		return nil
	}
	return rt.store.log
}

// Deliver carries one dissemination message from the owner to the
// server, in the one order that is safe:
//
//  1. append to the log — before the server can serve it, so nothing a
//     client ever saw is missing after a crash;
//  2. fsync now if the message certifies a summary or a filter — a
//     client may anchor its freshness on that summary, or accept a Bloom
//     negative under that filter, the moment it is served, so it must not
//     sit in the group-commit window;
//  3. apply to the server;
//  4. publish to the feed — after the apply, so a bootstrap image
//     captured at any instant holds every LSN the feed has announced.
//
// Every snapEvery messages it then captures a snapshot, here, at the
// consistent cut between two messages, stamped with this message's
// time; the encode + fsync + log truncation run in the background and
// never hold up the writer (appends race them safely: records past the
// watermark live in segments the truncation never touches).
func (rt *Runtime) Deliver(msg *core.UpdateMsg) error {
	if msg == nil {
		return nil
	}
	if rt.store == nil {
		rt.lsn++
	} else {
		lsn, err := rt.store.AppendMsg(msg)
		if err != nil {
			return err
		}
		rt.lsn = lsn
		rt.sinceSnap++
		if msg.Summary != nil || msg.Filter != nil {
			if err := rt.store.Sync(); err != nil {
				return err
			}
		}
	}
	if err := rt.QS.Apply(msg); err != nil {
		return err
	}
	rt.ts = msg.TS
	if rt.feed != nil {
		rt.feed.Publish(rt.lsn, msg)
	}
	if rt.snapEvery > 0 && rt.sinceSnap >= rt.snapEvery {
		return rt.snapshot()
	}
	return nil
}

// snapshot captures the current cut and hands the write to a background
// goroutine. While the previous write is still running it does nothing
// (the next Deliver tries again); if that write failed, the failure is
// reported here, to the writer.
func (rt *Runtime) snapshot() error {
	if rt.snapDone != nil {
		select {
		case err := <-rt.snapDone:
			rt.snapDone = nil
			if err != nil {
				return err
			}
		default:
			return nil
		}
	}
	snap, err := Capture(rt.DA, rt.QS, rt.lsn, rt.ts)
	if err != nil {
		return err
	}
	rt.sinceSnap = 0
	done := make(chan error, 1)
	rt.snapDone = done
	go func() {
		err := rt.store.WriteSnapshot(snap)
		if err != nil {
			err = fmt.Errorf("wal: background snapshot at lsn %d: %w", snap.LSN, err)
		}
		done <- err
	}()
	return nil
}

// Close waits for a background snapshot write to finish and closes the
// store.
func (rt *Runtime) Close() error {
	var err error
	if rt.snapDone != nil {
		err = <-rt.snapDone
		rt.snapDone = nil
	}
	if rt.store != nil {
		if cerr := rt.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
