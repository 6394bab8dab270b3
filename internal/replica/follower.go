package replica

import (
	"bufio"
	"context"
	"errors"
	"fmt"
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
	// Scheme is the (bound) signature scheme of the catalog; required.
	// The follower never verifies — it inherits the scheme only so its
	// QueryServer can build aggregation structures.
	Scheme sigagg.Scheme
	// QSOpts configure the follower's QueryServer (shards, parallelism).
	QSOpts []core.Option
	// MaxFrame caps a feed frame's payload (0 = wire.DefaultMaxFrame).
	// Bootstrap images of the whole catalog arrive as one frame; size
	// accordingly.
	MaxFrame int
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
	Lag        uint64 // PrimaryLSN - AppliedLSN (0 when caught up)
	Bootstraps uint64 // full images installed
	Records    uint64 // 'W' records applied
	Reconnects uint64 // feed sessions re-established
}

// Follower mirrors a primary's serving state into its own QueryServer
// by consuming the replication feed. It holds no keys and verifies
// nothing — it is itself an untrusted publisher, and the clients it
// serves verify everything. Run the feed loop on one goroutine; the
// QueryServer is concurrently readable throughout (bootstrap installs
// use the live-swap Restore path).
type Follower struct {
	cfg FollowerConfig
	qs  *core.QueryServer

	applied    atomic.Uint64
	primary    atomic.Uint64
	bootstraps atomic.Uint64
	records    atomic.Uint64
	reconnects atomic.Uint64
}

// NewFollower builds a follower with an empty QueryServer.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("replica: scheme is required")
	}
	if cfg.Rel == "" {
		cfg.Rel = core.DefaultRelation
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 10 * time.Second
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 2 * time.Second
	}
	return &Follower{
		cfg: cfg,
		qs:  core.NewQueryServer(cfg.Scheme, cfg.QSOpts...),
	}, nil
}

// QS exposes the follower's QueryServer for serving (wrap it in a
// server.NetServer, enable caches, etc.).
func (f *Follower) QS() *core.QueryServer { return f.qs }

// AppliedLSN reports the last LSN applied locally.
func (f *Follower) AppliedLSN() uint64 { return f.applied.Load() }

// PrimaryLSN reports the primary's LSN as last observed on the feed.
func (f *Follower) PrimaryLSN() uint64 { return f.primary.Load() }

// Lag reports how many records the follower is behind the primary, as
// of the last feed frame. A partitioned follower's lag freezes at its
// last observation — pair it with feed liveness (Reconnects climbing
// means the primary is unreachable).
func (f *Follower) Lag() uint64 {
	p, a := f.primary.Load(), f.applied.Load()
	if p > a {
		return p - a
	}
	return 0
}

// Stats snapshots the follower counters.
func (f *Follower) Stats() FollowerStats {
	return FollowerStats{
		AppliedLSN: f.applied.Load(),
		PrimaryLSN: f.primary.Load(),
		Lag:        f.Lag(),
		Bootstraps: f.bootstraps.Load(),
		Records:    f.records.Load(),
		Reconnects: f.reconnects.Load(),
	}
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
		_ = err // every session error has the same reaction: redial
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
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-done:
		}
	}()
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
		frame, err = wire.ReadFrame(br, frame, f.cfg.MaxFrame)
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
		if err := f.qs.Restore(st); err != nil {
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
		if lsn != a+1 {
			return fmt.Errorf("%w: applied %d, got %d", errFeedGap, a, lsn)
		}
		if err := f.qs.Apply(msg); err != nil {
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

// observePrimary advances the primary-LSN high-water mark.
func (f *Follower) observePrimary(lsn uint64) {
	for {
		cur := f.primary.Load()
		if lsn <= cur || f.primary.CompareAndSwap(cur, lsn) {
			return
		}
	}
}
