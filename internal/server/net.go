package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"authdb/internal/core"
	"authdb/internal/query"
	"authdb/internal/wire"
)

// NetConfig bounds one listener's resource use.
type NetConfig struct {
	// MaxConns caps concurrently served connections; further accepts
	// block until a slot frees. 0 means unlimited.
	MaxConns int
	// MaxFrame caps a request frame's payload bytes (0 =
	// wire.DefaultMaxFrame). Responses are not bounded by it: the server
	// knows what it sends.
	MaxFrame int
	// IdleTimeout closes a connection that sends no request for this
	// long (0 = never). A reaped connection frees its MaxConns slot, so
	// an adversary cannot park idle sockets to starve real clients.
	IdleTimeout time.Duration
	// ReadTimeout bounds the receipt of one request's payload once its
	// header has arrived (0 = never): a slow-loris peer dripping a
	// frame byte-by-byte is cut off instead of occupying a handler
	// indefinitely. The idle wait for the next header is governed by
	// IdleTimeout — set both for full slow-peer protection.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write (0 = never).
	WriteTimeout time.Duration
	// MaxInflight caps requests executing concurrently across all
	// connections (0 = unlimited). Unlike MaxConns it bounds work, not
	// sockets.
	MaxInflight int
	// MaxPending bounds the admission queue in front of the MaxInflight
	// slots. A request that finds the slots busy and the queue full is
	// shed immediately with an ErrCodeOverloaded 'E' response, telling
	// the client to back off. Only meaningful with MaxInflight > 0.
	MaxPending int
	// MaxSummaries caps the certified summaries returned per 'T'
	// response (0 = DefaultMaxSummaries). A long-lived server's backlog
	// grows without bound, so log-in syncs page through it: the client
	// asks again from the newest summary it holds until a response
	// brings nothing new.
	MaxSummaries int
}

// DefaultMaxSummaries bounds one summary response frame.
const DefaultMaxSummaries = 2048

// NetStats are the listener's monotonic counters.
type NetStats struct {
	Conns uint64 // connections accepted
	// Requests counts the request frames served, by frame kind
	// (wire.KindPlan, wire.KindRelSummaries).
	Requests    map[byte]uint64
	Errors      uint64 // 'E' responses sent
	Shed        uint64 // requests rejected by admission control
	Queued      uint64 // requests that waited in the admission queue
	Malformed   uint64 // connections dropped for unparseable frames
	BytesOut    uint64 // response payload bytes written
	ReplStreams uint64 // replication subscriptions accepted
}

// ReplSource streams one relation's replication feed to a follower
// connection; it is implemented by replica.Source and attached via
// EnableReplication.
// The server package depends only on this interface, so the serving
// front end stays decoupled from the replication machinery.
type ReplSource interface {
	ServeConn(conn net.Conn, afterLSN uint64, stop <-chan struct{}) error
}

// NetServer exposes a catalog of relations over a byte stream:
// length-prefixed wire frames, one request per frame, responses in
// request order so clients can pipeline. Every query is a plan served
// through a query.Engine; cached answers are written zero-copy — the
// entry's wire bytes go straight from the engine's answer cache to the
// socket, held under the entry's reference count for exactly the
// duration of the write.
type NetServer struct {
	qs  *core.QueryServer // the default relation
	eng *query.Engine     // set by EnablePlans or, failing that, by Serve; guarded by mu
	cfg NetConfig

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	drain    atomic.Bool // mirrors draining for lock-free handler checks

	wg  sync.WaitGroup
	sem chan struct{} // MaxConns slots, nil when unlimited
	adm *admission    // nil when MaxInflight is unlimited

	repl map[string]ReplSource // the relations with a feed (EnableReplication)
	stop chan struct{}         // closed by Shutdown; terminates replication streams

	conNum      atomic.Uint64
	plans       atomic.Uint64
	relSums     atomic.Uint64
	errs        atomic.Uint64
	malformed   atomic.Uint64
	bytesOut    atomic.Uint64
	replStreams atomic.Uint64
}

// NewNetServer serves qs as the one-relation catalog
// {core.DefaultRelation: qs}, through a default query.Engine unless
// EnablePlans attaches one.
func NewNetServer(qs *core.QueryServer, cfg NetConfig) *NetServer {
	s := &NetServer{
		qs:    qs,
		cfg:   cfg,
		conns: make(map[net.Conn]struct{}),
		repl:  make(map[string]ReplSource),
		adm:   newAdmission(cfg.MaxInflight, cfg.MaxPending),
		stop:  make(chan struct{}),
	}
	if cfg.MaxConns > 0 {
		s.sem = make(chan struct{}, cfg.MaxConns)
	}
	return s
}

// EnableReplication attaches relation rel's primary-side replication hub:
// a connection whose request is an 'R' subscription to rel is handed over
// to src for the rest of its life. Call before Serve.
func (s *NetServer) EnableReplication(rel string, src ReplSource) {
	s.repl[rel] = src
}

// EnablePlans serves eng's catalog: its relations beside the default
// one, which Serve registers with eng under core.DefaultRelation unless
// the engine already has a relation of that name. Call before Serve.
func (s *NetServer) EnablePlans(eng *query.Engine) {
	s.mu.Lock()
	s.eng = eng
	s.mu.Unlock()
}

// engine returns the engine the listener answers through (nil before
// EnablePlans or Serve).
func (s *NetServer) engine() *query.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng
}

// catalog settles what the listener serves: the engine EnablePlans
// attached, or an empty one, with the default relation in it.
func (s *NetServer) catalog() error {
	if s.eng == nil {
		s.eng = query.NewEngine()
	}
	for _, name := range s.eng.Relations() {
		if name == core.DefaultRelation {
			return nil
		}
	}
	return s.eng.AddRelation(core.DefaultRelation, s.qs)
}

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("server: closed")

// Listen binds addr without serving, so callers can read Addr before
// starting Serve on another goroutine.
func (s *NetServer) Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	return ln, nil
}

// Addr reports the bound listen address (nil before Listen/Serve).
func (s *NetServer) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on ln until Shutdown closes it, then waits
// for in-flight connections it owns to finish draining. Always returns
// a non-nil error; after Shutdown it is ErrServerClosed.
func (s *NetServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	err := s.catalog()
	if s.draining {
		err = ErrServerClosed
	}
	if err != nil {
		s.mu.Unlock()
		ln.Close()
		return err
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		if s.sem != nil {
			s.sem <- struct{}{}
		}
		conn, err := ln.Accept()
		if err != nil {
			if s.sem != nil {
				<-s.sem
			}
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			if s.sem != nil {
				<-s.sem
			}
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.conNum.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
				if s.sem != nil {
					<-s.sem
				}
			}()
			s.handle(conn)
		}()
	}
}

// Shutdown stops accepting and drains: every in-flight request is
// answered and flushed, connections blocked waiting for their next
// request are woken (an expired read deadline) and closed. If ctx
// expires before the handlers exit the remaining connections are closed
// forcibly, and Shutdown still waits for the handlers themselves.
func (s *NetServer) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		close(s.stop) // replication streams exit their select loops
	}
	s.draining = true
	s.drain.Store(true)
	s.adm.close() // queued requests are shed, not served, past this point
	ln := s.ln
	// Wake handlers blocked between requests; one mid-request finishes
	// its writes and exits at its next read.
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	<-done
	return err
}

// Stats snapshots the listener counters.
func (s *NetServer) Stats() NetStats {
	st := NetStats{
		Conns: s.conNum.Load(),
		Requests: map[byte]uint64{
			wire.KindPlan:         s.plans.Load(),
			wire.KindRelSummaries: s.relSums.Load(),
		},
		Errors:      s.errs.Load(),
		Malformed:   s.malformed.Load(),
		BytesOut:    s.bytesOut.Load(),
		ReplStreams: s.replStreams.Load(),
	}
	if s.adm != nil {
		st.Shed = s.adm.shed.Load()
		st.Queued = s.adm.queued.Load()
	}
	return st
}

// connWriter batches response writes per connection; bufio would do,
// but counting bytes out at the flush boundary keeps the accounting in
// one place.
type connWriter struct {
	conn net.Conn
	s    *NetServer
	buf  []byte
}

const connWriterSize = 64 << 10

// frame appends one length-prefixed frame to the batch, flushing when
// the batch is full.
func (w *connWriter) frame(payload []byte) error {
	return w.frame2(payload, nil)
}

// frame2 appends one length-prefixed frame whose payload is the
// concatenation of two buffers, without materializing the joined
// payload anywhere: the cached answer-core bytes and the per-client
// summary tails go under a single length header.
func (w *connWriter) frame2(a, b []byte) error {
	n := len(a) + len(b)
	if len(w.buf) > 0 && len(w.buf)+n+4 > connWriterSize {
		if err := w.flush(); err != nil {
			return err
		}
	}
	w.buf = append(w.buf, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	w.buf = append(w.buf, a...)
	w.buf = append(w.buf, b...)
	if len(w.buf) >= connWriterSize {
		return w.flush()
	}
	return nil
}

func (w *connWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if t := w.s.cfg.WriteTimeout; t > 0 {
		w.conn.SetWriteDeadline(time.Now().Add(t))
	}
	_, err := w.conn.Write(w.buf)
	w.s.bytesOut.Add(uint64(len(w.buf)))
	if cap(w.buf) > 4*connWriterSize {
		w.buf = nil // do not pin a giant answer's worth of memory per idle conn
	} else {
		w.buf = w.buf[:0]
	}
	return err
}

// handle runs one connection's request loop: read a frame, dispatch,
// and flush responses once no further request is already buffered (so
// a pipelined burst is answered with one write).
//
// Hardening: the idle wait for a request header is bounded by
// IdleTimeout, the receipt of an announced payload by ReadTimeout (a
// slow-loris dripping a frame cannot park the handler), every request
// passes the admission gate (overflow is shed with ErrCodeOverloaded),
// and a peer whose frames do not parse is cut off — closing only this
// connection, never disturbing the others.
func (s *NetServer) handle(conn net.Conn) {
	rd := bufio.NewReaderSize(conn, 4096)
	w := &connWriter{conn: conn, s: s}
	var frame []byte
	for {
		if s.drain.Load() && rd.Buffered() == 0 {
			return // responses for handled requests are already flushed
		}
		if t := s.cfg.IdleTimeout; t > 0 && rd.Buffered() == 0 {
			conn.SetReadDeadline(time.Now().Add(t))
			if s.drain.Load() {
				return // lost the race with Shutdown's deadline poke
			}
		}
		n, err := wire.ReadFrameHeader(rd, s.cfg.MaxFrame)
		if err != nil {
			if errors.Is(err, wire.ErrCorrupt) {
				s.malformed.Add(1)
				s.writeErrorCode(w, wire.ErrCodeBadFrame, err)
				w.flush()
			}
			return // EOF, timeout, or an oversized/garbled header
		}
		if t := s.cfg.ReadTimeout; t > 0 && n > rd.Buffered() {
			// The header announced n bytes: the peer gets a bounded
			// window to deliver them, however idle-tolerant the server
			// otherwise is.
			conn.SetReadDeadline(time.Now().Add(t))
		}
		frame, err = wire.ReadFramePayload(rd, frame, n)
		if err != nil {
			if errors.Is(err, wire.ErrCorrupt) {
				s.malformed.Add(1)
				s.writeErrorCode(w, wire.ErrCodeBadFrame, err)
				w.flush()
			}
			return // timeout mid-payload or torn frame: cannot re-sync
		}
		if s.cfg.ReadTimeout > 0 && s.cfg.IdleTimeout <= 0 {
			// No idle bound: clear the payload deadline so it cannot
			// reap a legitimately idle wait for the next request.
			// (Shutdown's wake-up poke is still honored by the drain
			// check at the top of the loop.)
			conn.SetReadDeadline(time.Time{})
		}
		kind, err := wire.Kind(frame)
		if err != nil {
			s.malformed.Add(1)
			s.writeErrorCode(w, wire.ErrCodeBadFrame, err)
			w.flush()
			return
		}
		if kind == wire.KindReplSubscribe {
			// A replication subscription takes the connection over for
			// its remaining life; it is a long-lived stream, not a
			// request, so it bypasses the admission gate.
			s.serveReplication(w, conn, frame)
			return
		}
		if !s.adm.acquire() {
			// Shed: reject fast with a machine-readable overload code so
			// the client backs off; the connection stays healthy.
			if err := s.writeErrorCode(w, wire.ErrCodeOverloaded,
				errOverloadedResponse); err != nil {
				return
			}
			if err := w.flush(); err != nil {
				return
			}
			continue
		}
		switch kind {
		case wire.KindPlan:
			err = s.servePlan(w, frame)
		case wire.KindRelSummaries:
			err = s.serveRelSummaries(w, frame)
		default:
			err = s.writeError(w, fmt.Errorf("server: unsupported request kind %q", kind))
		}
		s.adm.release()
		if err != nil {
			return // write-side failure; the conn is done
		}
		if rd.Buffered() == 0 {
			if err := w.flush(); err != nil {
				return
			}
		}
	}
}

// errOverloadedResponse is the shed response's payload; the code byte
// is what clients dispatch on, the text is for humans.
var errOverloadedResponse = errors.New("server: overloaded, retry with backoff")

// serveReplication hands one connection whose request was an 'R'
// subscription over to the replication hub. Any pending responses are
// flushed first so the follower sees a clean stream.
func (s *NetServer) serveReplication(w *connWriter, conn net.Conn, frame []byte) {
	rel, after, err := wire.DecodeReplSubReq(frame)
	if err != nil {
		s.malformed.Add(1)
		s.writeErrorCode(w, wire.ErrCodeBadFrame, err)
		w.flush()
		return
	}
	src := s.repl[rel]
	if src == nil {
		s.writeError(w, fmt.Errorf("server: no replication feed for relation %q", rel))
		w.flush()
		return
	}
	if err := w.flush(); err != nil {
		return
	}
	// The stream writes directly; deadlines set by the request loop no
	// longer apply.
	conn.SetReadDeadline(time.Time{})
	s.replStreams.Add(1)
	src.ServeConn(conn, after, s.stop)
}

// servePlan answers one 'P' plan frame. The engine hands back the
// (possibly cached) answer-core bytes and this client's relation summary
// tails: everything past the sequence number the session advertised for
// each relation, or for a cold session the tail reaching back to the
// answer's oldest signature. Both go under a single length header and
// form exactly one 'C' message. Protocol errors (an unknown relation, an
// inverted range) are reported to the peer as 'E' responses; only
// transport errors are returned.
func (s *NetServer) servePlan(w *connWriter, frame []byte) error {
	var rels [2]wire.RelSince // a plan names at most two relations
	plan, since, err := wire.DecodePlanReq(frame, rels[:0])
	if err != nil {
		return s.writeErrorCode(w, wire.ErrCodeBadFrame, err)
	}
	sv, err := s.eng.Serve(plan, since)
	if err != nil {
		return s.writeError(w, err)
	}
	s.plans.Add(1)
	werr := w.frame2(sv.Body, sv.Tails)
	sv.Release()
	return werr
}

// serveRelSummaries answers one 'T' frame — a log-in sync, a gap in a
// tail or a reconnecting session's re-anchor — with an 'F' summaries
// response, capped per response (the client pages).
func (s *NetServer) serveRelSummaries(w *connWriter, frame []byte) error {
	rel, sinceSeq, oldestTS, err := wire.DecodeRelSumsReq(frame)
	if err != nil {
		return s.writeErrorCode(w, wire.ErrCodeBadFrame, err)
	}
	sums, err := s.eng.ServeRelSummaries(rel, sinceSeq, oldestTS)
	if err != nil {
		return s.writeError(w, err)
	}
	max := s.cfg.MaxSummaries
	if max <= 0 {
		max = DefaultMaxSummaries
	}
	if len(sums) > max {
		sums = sums[:max]
	}
	buf := wire.AppendSummaries(wire.GetBuffer(), sums)
	werr := w.frame(buf)
	wire.PutBuffer(buf)
	if werr == nil {
		s.relSums.Add(1)
	}
	return werr
}

// writeError sends a generic 'E' response. The returned error is the
// transport's, not the one being reported.
func (s *NetServer) writeError(w *connWriter, cause error) error {
	return s.writeErrorCode(w, wire.ErrCodeGeneric, cause)
}

// writeErrorCode sends an 'E' response with a machine-readable code.
func (s *NetServer) writeErrorCode(w *connWriter, code byte, cause error) error {
	s.errs.Add(1)
	buf := wire.AppendErrorCode(wire.GetBuffer(), code, cause.Error())
	werr := w.frame(buf)
	wire.PutBuffer(buf)
	return werr
}
