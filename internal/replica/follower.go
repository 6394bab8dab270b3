package replica

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync/atomic"
	"time"

	"authdb/internal/core"
	"authdb/internal/sigagg"
	"authdb/internal/wire"
)

// FollowerConfig parameterizes a replica follower.
type FollowerConfig struct {
	// Rel names the primary's relation to mirror (empty =
	// core.DefaultRelation).
	Rel string
	// QSOpts configure the follower's QueryServer (shards, parallelism).
	QSOpts []core.Option
	// DialTimeout bounds connecting to the primary (0 = 2s).
	DialTimeout time.Duration
	// ReadTimeout bounds the wait for each feed frame (0 = 10s). It
	// must comfortably exceed the source's heartbeat cadence; expiry
	// means the primary is unreachable and the follower redials.
	ReadTimeout time.Duration
	// RetryBase/RetryMax shape the reconnect backoff (0 = 50ms / 2s).
	RetryBase time.Duration
	RetryMax  time.Duration
}

// FollowerStats snapshots a follower's replication state.
type FollowerStats struct {
	AppliedLSN uint64 // last dissemination message applied
	PrimaryLSN uint64 // primary's LSN as last reported on the feed
	// Lag is PrimaryLSN - AppliedLSN (0 when caught up); a partitioned
	// follower's freezes, while Reconnects climbs.
	Lag        uint64
	Bootstraps uint64 // full images installed
	Records    uint64 // 'W' records applied
	Reconnects uint64 // feed sessions re-established
}

// Follower mirrors a primary's serving state into its own QueryServer
// by consuming the replication feed. It holds no keys and verifies
// nothing — it is itself an untrusted publisher, and the clients it
// serves verify everything. Its QueryServer is built from the relation's
// first image, under the binding the image carries. Run the feed loop on
// one goroutine; the QueryServer is concurrently readable throughout.
type Follower struct {
	cfg     FollowerConfig
	schemes func(name string) (sigagg.Scheme, error)
	qs      atomic.Pointer[core.QueryServer]
	ready   chan struct{} // closed once qs is set
	lastErr atomic.Pointer[error]

	applied    atomic.Uint64
	primary    atomic.Uint64
	bootstraps atomic.Uint64
	records    atomic.Uint64
	reconnects atomic.Uint64
}

// NewFollower builds a follower with no QueryServer yet. schemes returns
// a fresh, unbound scheme by name, which the follower binds as the
// relation's first image says.
func NewFollower(cfg FollowerConfig, schemes func(name string) (sigagg.Scheme, error)) *Follower {
	cfg.Rel = cmp.Or(cfg.Rel, core.DefaultRelation)
	cfg.DialTimeout = cmp.Or(cfg.DialTimeout, 2*time.Second)
	cfg.ReadTimeout = cmp.Or(cfg.ReadTimeout, 10*time.Second)
	cfg.RetryBase = cmp.Or(cfg.RetryBase, 50*time.Millisecond)
	cfg.RetryMax = cmp.Or(cfg.RetryMax, 2*time.Second)
	return &Follower{cfg: cfg, schemes: schemes, ready: make(chan struct{})}
}

// QS exposes the follower's QueryServer for serving (wrap it in a
// server.NetServer, enable caches, etc.): nil until Ready is closed.
func (f *Follower) QS() *core.QueryServer { return f.qs.Load() }

// Ready is closed once the relation's first image is installed.
func (f *Follower) Ready() <-chan struct{} { return f.ready }

// LastErr reports why the last feed session ended (nil before any has).
func (f *Follower) LastErr() error {
	if p := f.lastErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Stats snapshots the follower counters.
func (f *Follower) Stats() FollowerStats {
	st := FollowerStats{
		AppliedLSN: f.applied.Load(),
		PrimaryLSN: f.primary.Load(),
		Bootstraps: f.bootstraps.Load(),
		Records:    f.records.Load(),
		Reconnects: f.reconnects.Load(),
	}
	if st.PrimaryLSN > st.AppliedLSN {
		st.Lag = st.PrimaryLSN - st.AppliedLSN
	}
	return st
}

// Run drives the feed until ctx is done: dial the primary, subscribe
// after the last applied LSN, apply the stream, and on any failure
// back off and redial — resubscription is always safe because the
// source either tails from the requested LSN or re-bootstraps. Returns
// ctx.Err() on shutdown.
func (f *Follower) Run(ctx context.Context, primaryAddr string) error {
	delay := f.cfg.RetryBase
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		beforeApplied, beforeBoot := f.applied.Load(), f.bootstraps.Load()
		err := f.session(ctx, primaryAddr)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		f.lastErr.Store(&err) // every session error has the same reaction: redial
		f.reconnects.Add(1)
		if f.applied.Load() != beforeApplied || f.bootstraps.Load() != beforeBoot {
			// Progress this session: restart the backoff ladder.
			delay = f.cfg.RetryBase
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
		if delay *= 2; delay > f.cfg.RetryMax {
			delay = f.cfg.RetryMax
		}
	}
}

// session runs one feed connection until it fails or ctx tears it
// down.
func (f *Follower) session(ctx context.Context, addr string) error {
	conn, err := net.DialTimeout("tcp", addr, f.cfg.DialTimeout)
	if err != nil {
		return err
	}
	defer context.AfterFunc(ctx, func() { conn.Close() })()
	defer conn.Close()

	req := wire.AppendReplSubReq(wire.GetBuffer(), f.cfg.Rel, f.applied.Load())
	werr := wire.WriteFrame(conn, req)
	wire.PutBuffer(req)
	if werr != nil {
		return werr
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	var frame []byte
	for {
		conn.SetReadDeadline(time.Now().Add(f.cfg.ReadTimeout))
		frame, err = wire.ReadFrame(br, frame, math.MaxInt)
		if err != nil {
			return err
		}
		if err := f.apply(frame); err != nil {
			return err
		}
	}
}

// errFeedGap reports a non-contiguous feed; resubscribing (which tails
// or re-bootstraps from the applied LSN) repairs it.
var errFeedGap = errors.New("replica: feed gap")

// apply dispatches one feed frame.
func (f *Follower) apply(frame []byte) error {
	kind, err := wire.Kind(frame)
	if err != nil {
		return err
	}
	switch kind {
	case wire.KindReplBootstrap:
		lsn, st, err := wire.DecodeBootstrap(frame)
		if err != nil {
			return err
		}
		if err := f.install(st); err != nil {
			return err
		}
		// An image restarts the history: both positions are the image's,
		// even when that is behind where another history had reached.
		f.applied.Store(lsn)
		f.primary.Store(lsn)
		f.bootstraps.Add(1)
		return nil
	case wire.KindReplRecord:
		lsn, primaryLSN, msg, err := wire.DecodeWalRecord(frame)
		if err != nil {
			return err
		}
		f.observePrimary(primaryLSN)
		a := f.applied.Load()
		if lsn <= a {
			return nil // overlap with a bootstrap image: idempotent skip
		}
		qs := f.QS()
		if lsn != a+1 || qs == nil { // a record before the first image is a gap too
			return fmt.Errorf("%w: applied %d, got %d", errFeedGap, a, lsn)
		}
		if err := qs.Apply(msg); err != nil {
			return err
		}
		f.applied.Store(lsn)
		f.records.Add(1)
		return nil
	case wire.KindReplHeartbeat:
		lsn, err := wire.DecodeReplHeartbeat(frame)
		if err != nil {
			return err
		}
		f.observePrimary(lsn)
		return nil
	case wire.KindError:
		code, msg, err := wire.DecodeErrorCode(frame)
		if err != nil {
			return err
		}
		return fmt.Errorf("replica: primary refused subscription (code %d): %s", code, msg)
	default:
		return fmt.Errorf("%w: unexpected feed frame %q", wire.ErrCorrupt, kind)
	}
}

// install restores an image into the QueryServer, or builds the
// QueryServer from the first one, under the binding it carries.
func (f *Follower) install(st *core.ServerState) error {
	if qs := f.QS(); qs != nil {
		return qs.Restore(st)
	}
	raw, err := f.schemes(st.Binding.Scheme)
	if err != nil {
		return err
	}
	scheme, err := sigagg.BindTo(raw, st.Binding)
	if err != nil {
		return err
	}
	qs := core.NewQueryServer(scheme, f.cfg.QSOpts...)
	if err := qs.Restore(st); err != nil {
		return err
	}
	f.qs.Store(qs)
	close(f.ready)
	return nil
}

// observePrimary advances the primary-LSN high-water mark.
func (f *Follower) observePrimary(lsn uint64) {
	for {
		cur := f.primary.Load()
		if lsn <= cur || f.primary.CompareAndSwap(cur, lsn) {
			return
		}
	}
}
