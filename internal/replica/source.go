// Package replica implements the untrusted replica fleet: follower
// processes that mirror a primary's serving state and re-serve it to
// verifying clients.
//
// The trust model is the paper's: a replica is just another untrusted
// publisher. Everything it serves — records, chained signatures,
// certified summaries — is owner-signed, so a follower needs no
// credentials and performs no verification of the feed; a Byzantine
// follower can at worst serve stale, forked, or garbled state, all of
// which the *client* detects (freshness misses, ErrDiverged, signature
// failures). Replication here is purely an availability/throughput
// mechanism, never a correctness one.
//
// The unit of replication is the relation: a primary keeps one Source per
// relation runtime (each has its own LSN space and log), a replica one
// Follower per relation, and a catalog is replicated by subscribing to
// each of its relations. Relations share no commit point on the primary
// either; a client bounds each one's staleness through its own summaries.
//
// Protocol (wire 'R'/'B'/'W'/'H' frames): a follower subscribes to a
// relation with the last LSN it applied. The primary either tails its
// WAL from that point or, when the log has been truncated past it (or
// the follower is fresh, or ahead of a restarted primary), streams a
// bootstrap image captured from the live QueryServer, then feeds every
// subsequent dissemination message in LSN order with idle-time
// heartbeats carrying the primary's LSN so followers can expose their
// replication lag.
package replica

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"authdb/internal/core"
	"authdb/internal/wal"
	"authdb/internal/wire"
)

// SourceConfig tunes the primary's replication feed.
type SourceConfig struct {
	// Heartbeat is the idle-feed cadence of 'H' frames (0 = 500ms).
	Heartbeat time.Duration
	// WriteTimeout bounds each frame write to a follower (0 = never). A
	// stalled follower is disconnected rather than allowed to wedge the
	// stream goroutine.
	WriteTimeout time.Duration
	// SubBuffer is each subscriber's in-memory record buffer (0 = 4096).
	// A follower that falls further behind than this while the primary
	// publishes is cut off and must resubscribe (tail or re-bootstrap).
	SubBuffer int
}

// Source is the primary-side replication hub. The primary's runtime
// (wal.Runtime.Deliver) calls Publish after each log append and
// QueryServer apply; Source fans the encoded message out to every
// subscribed follower.
// ServeConn runs one follower's stream and is called by the network
// front end when a connection's first frame is an 'R' subscription.
type Source struct {
	qs  *core.QueryServer
	log *wal.Log // optional: enables tail catch-up without a full image
	cfg SourceConfig

	mu      sync.Mutex
	lastLSN uint64
	subs    map[*subscriber]struct{}

	streams    atomic.Uint64 // follower streams ever started
	active     atomic.Int64  // follower streams currently live
	bootstraps atomic.Uint64 // 'B' images served
	fanout     atomic.Uint64 // 'W' records fanned out (all subscribers)
}

type subscriber struct {
	ch    chan streamFrame
	start uint64 // Source.lastLSN at registration
	quit  chan struct{}
	once  sync.Once // closes quit (overrun)
}

// streamFrame is one published record: the LSN plus the shared,
// immutable AppendUpdateMsg encoding.
type streamFrame struct {
	lsn  uint64
	data []byte
}

// NewSource builds the replication hub over a booted primary runtime
// and attaches itself as the runtime's feed, so every Deliver from here
// on is published. The hub starts at the runtime's LSN; when the
// runtime has a WAL, a briefly-disconnected follower catches up from
// the log tail instead of re-bootstrapping a full image.
func NewSource(rt *wal.Runtime, cfg SourceConfig) *Source {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	if cfg.SubBuffer <= 0 {
		cfg.SubBuffer = 4096
	}
	s := &Source{qs: rt.QS, log: rt.Log(), cfg: cfg, lastLSN: rt.LSN(), subs: make(map[*subscriber]struct{})}
	rt.SetFeed(s)
	return s
}

// Publish implements wal.Feed: it fans one applied dissemination
// message out to the subscribers. The runtime calls it after the
// message is (a) appended to the WAL as lsn and (b) applied to the
// QueryServer, in ascending LSN order — the apply-before-publish
// ordering is what makes a bootstrap image captured at any point
// consistent with the LSN it claims.
func (s *Source) Publish(lsn uint64, msg *core.UpdateMsg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastLSN = lsn
	if len(s.subs) == 0 {
		return
	}
	// Encoded once, shared by every subscriber; never pooled — a slow
	// subscriber may still hold it after Publish returns.
	data := wire.AppendUpdateMsg(make([]byte, 0, 256), msg)
	for sub := range s.subs {
		select {
		case sub.ch <- streamFrame{lsn: lsn, data: data}:
			s.fanout.Add(1)
		default:
			// Overrun: the follower is too far behind to feed from
			// memory. Cut the stream; it will resubscribe and catch up
			// from the log or a fresh bootstrap.
			sub.once.Do(func() { close(sub.quit) })
		}
	}
}

// LastLSN reports the newest published (or recovered) LSN.
func (s *Source) LastLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastLSN
}

// SourceStats are the hub's monotonic counters.
type SourceStats struct {
	Streams    uint64 // follower streams started
	Active     int64  // follower streams currently live
	Bootstraps uint64 // bootstrap images served
	Fanout     uint64 // records fanned out across all subscribers
}

// Stats snapshots the hub counters.
func (s *Source) Stats() SourceStats {
	return SourceStats{
		Streams:    s.streams.Load(),
		Active:     s.active.Load(),
		Bootstraps: s.bootstraps.Load(),
		Fanout:     s.fanout.Load(),
	}
}

func (s *Source) subscribe() *subscriber {
	sub := &subscriber{
		ch:   make(chan streamFrame, s.cfg.SubBuffer),
		quit: make(chan struct{}),
	}
	s.mu.Lock()
	sub.start = s.lastLSN
	s.subs[sub] = struct{}{}
	s.mu.Unlock()
	return sub
}

func (s *Source) unsubscribe(sub *subscriber) {
	s.mu.Lock()
	delete(s.subs, sub)
	s.mu.Unlock()
}

// ServeConn streams the replication feed to one follower that
// subscribed after afterLSN, until the connection fails, the follower
// falls hopelessly behind, or stop closes (server shutdown). The
// caller owns conn and closes it after ServeConn returns.
func (s *Source) ServeConn(conn net.Conn, afterLSN uint64, stop <-chan struct{}) error {
	s.streams.Add(1)
	s.active.Add(1)
	defer s.active.Add(-1)
	sub := s.subscribe()
	defer s.unsubscribe(sub)

	buf := wire.GetBuffer()
	defer func() { wire.PutBuffer(buf) }() // buf is regrown per frame; pool the final one
	send := func(payload []byte) error {
		if t := s.cfg.WriteTimeout; t > 0 {
			conn.SetWriteDeadline(time.Now().Add(t))
		}
		return wire.WriteFrame(conn, payload)
	}

	// Catch the follower up to the subscription point. Everything
	// published after sub.start arrives on the channel; everything at or
	// before it must come from the log tail or a bootstrap image.
	// A fresh follower (afterLSN 0) is imaged: it learns its binding from
	// the image. A follower past the subscription point applied another
	// history (an in-memory primary restarted, and its LSNs began again):
	// its position names nothing here, so it is imaged like one too far
	// behind.
	from := afterLSN
	canTail := from > 0 && from == sub.start
	if from > 0 && from < sub.start && s.log != nil {
		if first := s.log.FirstLSN(); first > 0 && from+1 >= first {
			canTail = true
		}
	}
	if !canTail {
		// The image is captured after reading sub.start, and the writer
		// publishes only after applying — so the image holds every
		// record ≤ sub.start. It may also hold a few already-applied
		// records past it; the follower's LSN dedup makes the overlap a
		// harmless re-apply.
		st := s.qs.Snapshot()
		buf = wire.AppendBootstrap(buf[:0], sub.start, st)
		if err := send(buf); err != nil {
			return err
		}
		s.bootstraps.Add(1)
		from = sub.start
	}
	if from < sub.start {
		// Tail the WAL for (from, sub.start]. The log holds every
		// record ≤ sub.start: appends happen before publishes.
		err := s.log.Replay(func(lsn uint64, body []byte) error {
			if lsn <= from || lsn > sub.start {
				return nil
			}
			buf = wire.AppendWalRecord(buf[:0], lsn, sub.start, body)
			return send(buf)
		})
		if err != nil {
			return err
		}
		from = sub.start
	}

	hb := time.NewTicker(s.cfg.Heartbeat)
	defer hb.Stop()
	for {
		select {
		case fr := <-sub.ch:
			if fr.lsn <= from {
				continue // duplicate with the catch-up phase
			}
			buf = wire.AppendWalRecord(buf[:0], fr.lsn, s.LastLSN(), fr.data)
			if err := send(buf); err != nil {
				return err
			}
			from = fr.lsn
		case <-hb.C:
			buf = wire.AppendReplHeartbeat(buf[:0], s.LastLSN())
			if err := send(buf); err != nil {
				return err
			}
		case <-sub.quit:
			return fmt.Errorf("replica: follower overran the %d-record feed buffer", s.cfg.SubBuffer)
		case <-stop:
			return nil
		}
	}
}
