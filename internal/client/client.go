// Package client is the user side of the networked serving protocol: a
// verifying client that speaks the wire format over TCP, pipelines
// range queries, and checks every verified answer for authenticity,
// completeness (chain digests recomputed from the received bytes, the
// aggregates closed in one batch by core.Verifier.VerifyAnswers — which
// remembers the claims it has closed) and freshness against the
// certified summary stream it tracks from the server.
//
// The server is untrusted: nothing it sends is believed until the
// verifier has checked it against the data aggregator's public key.
//
// Ownership: a Client owns one connection and one verifier state, and
// every exported method serializes on an internal mutex — concurrent
// callers are safe but take turns, so a retry loop in one goroutine can
// never interleave its frames with another's. For parallel query
// throughput, dial one Client per goroutine.
//
// The network is no more trusted than the server. With a RetryPolicy
// configured the client survives hostile transports: per-request
// deadlines, automatic reconnect with capped exponential backoff and
// jitter, idempotent resend of 'Q'/'S' requests, and backoff on
// ErrOverloaded shed responses. Every reconnect re-anchors the
// certified summary stream (the SyncSummaries/ErrDiverged machinery),
// so flaky networking can never trick a session into trusting a
// rolled-back or stale server — faults may fail requests, but they can
// never widen what the client accepts.
package client

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"authdb/internal/core"
	"authdb/internal/freshness"
	"authdb/internal/sigagg"
	"authdb/internal/wire"
)

// Config parameterizes a client session.
type Config struct {
	// Scheme and Pub identify the data aggregator whose certifications
	// the client trusts. Both are required.
	Scheme sigagg.Scheme
	Pub    sigagg.PublicKey
	// Protocol supplies ρ and ρ' (zero value = core.DefaultConfig()).
	Protocol core.Config
	// MaxFrame caps a response frame's payload (0 = wire.DefaultMaxFrame).
	MaxFrame int
	// DialTimeout bounds connection establishment (0 = no limit).
	DialTimeout time.Duration
	// RequestTimeout bounds each request round trip — writes plus the
	// reads of every pipelined response (0 = no limit). On expiry the
	// connection is unusable (responses can no longer be matched) and
	// the retry machinery, if enabled, reconnects.
	RequestTimeout time.Duration
	// Retry enables automatic recovery from transport faults and
	// overload shedding; the zero value means one attempt per request.
	Retry RetryPolicy
	// Now supplies the protocol clock used for freshness bounds. The
	// protocol's timestamps are logical; by default every certified
	// answer is simply checked against all summaries held.
	Now func() int64
	// VerifyWorkers caps the goroutines answer verification fans out
	// across (digest recomputation, batched signature checks).
	// 0 = GOMAXPROCS. Benchmarks pin it to 1 for per-core numbers.
	VerifyWorkers int
	// Relations maps relation names to their owners' public keys for a
	// multi-relation catalog session. Each relation gets its own
	// verifier (summary stream, freshness state); composite plan
	// answers (QueryPlan) are checked per relation against these keys.
	// Single-relation sessions leave it nil.
	Relations map[string]sigagg.PublicKey
}

// Stats are the client's monotonic counters.
type Stats struct {
	Queries     uint64 // answers fetched
	Verified    uint64 // answers that passed full verification
	Summaries   uint64 // certified summaries ingested
	BytesIn     uint64 // response payload bytes received
	Retries     uint64 // operations resent after a retryable failure
	Reconnects  uint64 // connections re-established
	Shed        uint64 // operations rejected by server overload shedding
	Failovers   uint64 // reconnects that switched to a different replica
	Quarantines uint64 // replicas condemned for tampered/diverged state

	// Composite plan-query counters (QueryPlan).
	Plans         uint64 // composite answers fetched and fully verified
	JoinMatches   uint64 // matched-key proofs verified
	JoinBFNegs    uint64 // Bloom-negative non-match proofs verified
	JoinBFFalls   uint64 // Bloom false positives proven by boundary fallback
	JoinBounds    uint64 // BV boundary non-match proofs verified
	AttrSigsVerif uint64 // attribute-level signatures covered by projection aggregates

	// Verification fast-path counters, snapshotted from the scheme at
	// Stats() time. The scheme's caches are process-wide (DialFleet
	// clients and pools share one scheme instance, and so one set of
	// precomputation tables), so these count the whole process's
	// verification traffic, not just this session's.
	H2CCacheHits   uint64 // hash-to-curve lookups served from cache
	H2CCacheMisses uint64 // hash-to-curve lookups computed in full
	TableBuilds    uint64 // per-public-key precomputation tables built

	// Claim-memo counters (core.ClaimStats), summed over this session's
	// verifiers — one per relation key — at Stats() time. These are the
	// session's own: a claim is remembered per verifier.
	ClaimHits        uint64 // signature claims the session had already closed
	ClaimMisses      uint64 // signature claims sent to the scheme
	BatchesWithoutEC uint64 // closing batches all of whose claims were known
}

// Client is one verifying session against a networked query server.
// All exported methods are safe for concurrent use; they serialize on
// an internal mutex (see the package comment).
type Client struct {
	mu       sync.Mutex
	cfg      Config
	addr     string // last dialed address, the retry reconnect target
	conn     net.Conn
	in       frameSource
	bw       *bufio.Writer
	verifier *core.Verifier
	rng      *rand.Rand
	sleep    func(time.Duration) // indirection for deterministic tests
	stats    Stats

	// Fleet state (see fleet.go); empty for a single-server session.
	addrs []string         // the replica set, in failover order
	cur   int              // index of the replica currently connected
	quar  map[string]error // quarantined replicas and their evidence

	// Catalog state (see plan.go); nil without cfg.Relations.
	rels map[string]*relSession
}

// Dial connects to a query server at addr.
func Dial(addr string, cfg Config) (*Client, error) {
	if cfg.Scheme == nil || cfg.Pub == nil {
		return nil, fmt.Errorf("%w: scheme and public key are required", ErrConfig)
	}
	if cfg.Protocol == (core.Config{}) {
		cfg.Protocol = core.DefaultConfig()
	}
	if cfg.Now == nil {
		cfg.Now = func() int64 { return 1 << 62 }
	}
	conn, err := net.DialTimeout("tcp", addr, cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	seed := cfg.Retry.Seed
	if seed == 0 {
		seed = 1
	}
	c := &Client{
		cfg:      cfg,
		addr:     addr,
		conn:     conn,
		verifier: core.NewVerifier(cfg.Scheme, cfg.Pub, cfg.Protocol),
		rng:      rand.New(rand.NewSource(seed)),
		sleep:    time.Sleep,
	}
	if cfg.VerifyWorkers >= 1 {
		c.verifier.SetParallelism(cfg.VerifyWorkers)
	}
	if len(cfg.Relations) > 0 {
		c.rels = make(map[string]*relSession, len(cfg.Relations))
		for name, pub := range cfg.Relations {
			if name == "" || pub == nil {
				conn.Close()
				return nil, fmt.Errorf("%w: relation needs a name and a public key", ErrConfig)
			}
			// Aggregation parameters live with the signer's key, so each
			// relation verifies under a scheme bound to its own owner.
			bound, err := sigagg.Bind(cfg.Scheme, pub)
			if err != nil {
				conn.Close()
				return nil, fmt.Errorf("%w: relation %q: %v", ErrConfig, name, err)
			}
			v := core.NewVerifier(bound, pub, cfg.Protocol)
			if cfg.VerifyWorkers >= 1 {
				v.SetParallelism(cfg.VerifyWorkers)
			}
			c.rels[name] = &relSession{pub: pub, scheme: bound, verifier: v}
		}
	}
	c.resetBuffers()
	return c, nil
}

func (c *Client) resetBuffers() {
	c.in = frameSource{head: bufio.NewReaderSize(c.conn, headBuf), conn: c.conn}
	c.bw = bufio.NewWriterSize(c.conn, 16<<10)
}

// headBuf is the buffer frame headers are read through: small frames
// (summaries, errors, a pipelined batch of them) arrive whole in one read,
// and of a large one at most this much is copied twice.
const headBuf = 4 << 10

// frameSource is the connection's read side. A frame's 4-byte header is
// read through head; its payload through Read, which hands out what the
// header's read left in head and from then on reads the conn directly —
// the kernel copies an answer's bytes into the frame that will own them,
// not into a buffer they are copied out of again.
type frameSource struct {
	head *bufio.Reader
	conn net.Conn
}

func (r *frameSource) Read(p []byte) (int, error) {
	if n := r.head.Buffered(); n > 0 {
		return r.head.Read(p[:min(n, len(p))])
	}
	return r.conn.Read(p)
}

// Close tears the connection down. The verifier state (ingested
// summaries) is discarded with the client.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// Reconnect dials addr again after a broken connection — typically a
// server restart — preserving the session's verifier state, then
// re-anchors the certified summary stream: the newest held summary is
// re-fetched from the new server and compared byte-for-byte against
// the held copy, and any newer summaries are ingested. A server that
// recovered durably bridges seamlessly (its stream continues the held
// sequence); one that lost state is caught by the divergence check
// (ErrDiverged) instead of silently rolling the session's freshness
// anchor back. On ErrDiverged the connection is established but the
// session refuses to trust it.
func (c *Client) Reconnect(addr string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// An explicit Reconnect is the user overriding the fleet machinery:
	// it targets exactly addr, quarantine or not (re-admitting a replica
	// after an operator repaired it is precisely this call's job in a
	// fleet session — the divergence check still guards the re-entry).
	for i, a := range c.addrs {
		if a == addr {
			c.cur = i
			delete(c.quar, addr)
		}
	}
	c.addr = addr
	if err := c.redialTo(addr); err != nil {
		return err
	}
	return c.reanchor()
}

// redial re-establishes a transport: to the configured server, or —
// for a fleet session — to the first usable replica, failing over past
// dead ones.
func (c *Client) redial() error {
	c.conn.Close() // best effort; the old conn is usually already dead
	if len(c.addrs) > 0 {
		return c.redialFleet()
	}
	return c.redialTo(c.addr)
}

// redialTo re-establishes the transport to one specific address.
func (c *Client) redialTo(addr string) error {
	c.conn.Close()
	conn, err := net.DialTimeout("tcp", addr, c.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("client: reconnect %s: %w", addr, err)
	}
	c.addr = addr
	c.conn = conn
	c.resetBuffers()
	c.stats.Reconnects++
	return nil
}

// reanchor replays the summary sync from the newest held summary's
// timestamp (inclusive, so the server must re-send the tip and the
// held/resent comparison runs), detecting rollback and catching up on
// anything published while the session was disconnected.
func (c *Client) reanchor() error {
	anchor := int64(0)
	if latest, ok := c.verifier.LatestSummary(); ok {
		anchor = latest.TS
	}
	if _, err := c.syncSummaries(anchor); err != nil {
		return err
	}
	return nil
}

// Stats snapshots the session counters, overlaying the scheme's
// verification fast-path counters (see the Stats field comments for
// their process-wide scope) and the session's claim-memo counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	if vs, ok := c.verifier.VerifyStats(); ok {
		st.H2CCacheHits = vs.H2CCacheHits
		st.H2CCacheMisses = vs.H2CCacheMisses
		st.TableBuilds = vs.TableBuilds
	}
	addClaims := func(v *core.Verifier) {
		cs := v.ClaimStats()
		st.ClaimHits += cs.ClaimHits
		st.ClaimMisses += cs.ClaimMisses
		st.BatchesWithoutEC += cs.BatchesWithoutEC
	}
	addClaims(c.verifier)
	for _, rs := range c.rels {
		addClaims(rs.verifier)
	}
	return st
}

// SummaryCount reports how many certified summaries the session holds.
func (c *Client) SummaryCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.verifier.SummaryCount()
}

// withRetry runs one idempotent operation under the session's retry
// policy: overload sheds back off and resend on the live connection;
// transport faults back off, reconnect (which re-anchors the summary
// stream), and resend; everything else — verification failures,
// divergence, semantic server errors — is surfaced immediately.
//
// A fleet session additionally fails over: any reconnect-class fault
// or overload shed moves the cursor to the next replica before
// redialing, and quarantinable evidence (divergence, tampered bytes)
// condemns the replica first — including divergence discovered by the
// re-anchor itself, which for a standalone session remains fatal.
func (c *Client) withRetry(op func() error) error {
	attempts := c.cfg.Retry.attempts()
	var start time.Time
	if c.cfg.Retry.MaxElapsed > 0 {
		start = time.Now()
	}
	reconnect := false
	var err error
	for attempt := 1; ; attempt++ {
		if reconnect {
			if rerr := c.redial(); rerr != nil {
				err = rerr
			} else if rerr := c.reanchor(); rerr != nil {
				err = rerr // classified below; ErrDiverged stays fatal
			} else {
				reconnect = false
			}
		}
		if !reconnect {
			err = op()
		}
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrOverloaded) {
			c.stats.Shed++
		}
		if errors.Is(err, ErrAllQuarantined) {
			return err // no server left to retry against
		}
		if attempt >= attempts {
			return err
		}
		switch classify(err) {
		case rcFatal:
			if !(c.fleet() && quarantinable(err)) {
				return err
			}
			c.quarantineCur(err)
			c.conn.Close()
			reconnect = true
		case rcReconnect:
			if c.fleet() {
				if quarantinable(err) {
					c.quarantineCur(err)
				}
				c.advance()
			}
			reconnect = true
			c.conn.Close() // wake anything stuck and force a fresh dial
		case rcBackoff:
			if c.fleet() {
				// The replica is healthy but saturated; a fleet session
				// spends the backoff switching servers instead of waiting
				// in this one's queue.
				c.advance()
				c.conn.Close()
				reconnect = true
			}
		}
		c.stats.Retries++
		d := c.cfg.Retry.delay(attempt, c.rng)
		if me := c.cfg.Retry.MaxElapsed; me > 0 {
			remaining := me - time.Since(start)
			if remaining <= 0 {
				return err
			}
			if d > remaining {
				d = remaining // one final attempt at the budget's edge
			}
		}
		c.sleep(d)
	}
}

// armDeadline starts the per-request clock; clearDeadline stops it
// after a completed round trip.
func (c *Client) armDeadline() {
	if t := c.cfg.RequestTimeout; t > 0 {
		c.conn.SetDeadline(time.Now().Add(t))
	}
}

func (c *Client) clearDeadline() {
	if c.cfg.RequestTimeout > 0 {
		c.conn.SetDeadline(time.Time{})
	}
}

// readFrame reads one response frame into a buffer of its own, sized to
// the payload the header announced (and bounded by MaxFrame before it is
// allocated). The client never writes to it again: an answer or composite
// decoded from it aliases it and keeps it alive, and the collector frees
// the two together.
func (c *Client) readFrame() ([]byte, error) {
	n, err := wire.ReadFrameHeader(c.in.head, c.cfg.MaxFrame)
	if err != nil {
		return nil, err
	}
	data, err := wire.ReadFramePayload(&c.in, nil, n)
	if err != nil {
		return nil, err
	}
	c.stats.BytesIn += uint64(len(data)) + 4
	return data, nil
}

// ErrConfig reports an invalid session configuration detected before
// any network traffic. It is deterministic — the same arguments fail
// the same way — so the retry machinery treats it as fatal.
var ErrConfig = errors.New("client: invalid configuration")

// ErrServer wraps error responses the server sent ('E' frames).
var ErrServer = errors.New("client: server error")

// ErrOverloaded (an ErrServer) reports that admission control shed the
// request before doing any work. The connection is healthy; the right
// reaction is to back off and resend, which the retry machinery does
// automatically when enabled.
var ErrOverloaded = fmt.Errorf("%w: overloaded", ErrServer)

// ErrBadFrame (an ErrServer) reports that the server could not parse a
// request frame. Since this client always encodes well-formed frames,
// it treats the response as evidence of in-flight corruption and — with
// retries enabled — resends over a fresh connection.
var ErrBadFrame = fmt.Errorf("%w: request frame rejected", ErrServer)

// ErrDiverged (an ErrServer) reports that a summary the server supplied
// contradicts the same-sequence summary this session already verified —
// the signature of a server whose certified state rolled back, e.g. a
// restart without durable recovery. Accepting the server's version
// would silently rewind the session's freshness anchor, so the session
// refuses instead; the user re-logs-in with a fresh session only after
// deciding the rollback is expected.
var ErrDiverged = fmt.Errorf("%w: certified summary stream diverged (server lost durable state?)", ErrServer)

// checkHeld compares an incoming summary against the same-sequence
// summary the session already holds, if any. A mismatch is accused as
// divergence only after the incoming summary's signature verifies:
// rollback evidence must be authenticated, or in-flight bit flips could
// forge "divergence" and kill honest sessions (the conflict is then
// just transport corruption, and retryable).
func (c *Client) checkHeld(s *freshness.Summary) error {
	return checkHeldIn(c.verifier, s)
}

// checkHeldIn is checkHeld against an explicit verifier, shared with the
// per-relation summary streams of a catalog session.
func checkHeldIn(v *core.Verifier, s *freshness.Summary) error {
	held, ok := v.SummaryBySeq(s.Seq)
	if !ok {
		return nil
	}
	if held.TS != s.TS || held.PeriodStart != s.PeriodStart ||
		!bytes.Equal(held.Compressed, s.Compressed) || !bytes.Equal(held.Sig, s.Sig) {
		if err := v.VerifySummarySig(s); err != nil {
			return fmt.Errorf("%w: conflicting summary %d is unauthenticated (%v)",
				wire.ErrCorrupt, s.Seq, err)
		}
		return fmt.Errorf("%w: summary %d", ErrDiverged, s.Seq)
	}
	return nil
}

// decodeAnswerFrame interprets one response frame as an answer or a
// server-reported error.
func decodeAnswerFrame(data []byte) (*core.Answer, error) {
	kind, err := wire.Kind(data)
	if err != nil {
		return nil, err
	}
	switch kind {
	case wire.KindAnswer:
		return wire.DecodeAnswer(data)
	case wire.KindError:
		return nil, decodeErrorFrame(data)
	default:
		return nil, fmt.Errorf("%w: unexpected response kind %q", wire.ErrCorrupt, kind)
	}
}

// decodeErrorFrame maps a server 'E' response to the sentinel its code
// selects, so callers (and the retry classifier) can react without
// parsing prose.
func decodeErrorFrame(data []byte) error {
	code, msg, err := wire.DecodeErrorCode(data)
	if err != nil {
		return err
	}
	switch code {
	case wire.ErrCodeOverloaded:
		return fmt.Errorf("%w: %s", ErrOverloaded, msg)
	case wire.ErrCodeBadFrame:
		return fmt.Errorf("%w: %s", ErrBadFrame, msg)
	default:
		return fmt.Errorf("%w: %s", ErrServer, msg)
	}
}

// Fetch round-trips one range query and decodes the answer without
// verifying it. Callers that trust nothing (all of them — the server is
// untrusted) pass the result through Verify, or use Query.
func (c *Client) Fetch(lo, hi int64) (*core.Answer, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	answers, err := c.fetchBatchRetry([]core.Range{{Lo: lo, Hi: hi}})
	if err != nil {
		return nil, err
	}
	return answers[0], nil
}

// FetchBatch pipelines the range queries on the connection — all
// requests are written before any response is read, so the batch costs
// one round trip — and decodes the in-order answers. If the server
// reported errors for some queries, every response is still drained
// (the connection stays usable) and the first error is returned.
//
// Each answer owns the frame it arrived in: its records, attribute
// values and aggregate are views of that frame (wire.DecodeAnswer), so
// nothing is copied between the socket and the hash, and holding any
// record of an answer holds the whole frame. The certified summaries an
// answer carries are copies, because the session keeps them.
func (c *Client) FetchBatch(ranges []core.Range) ([]*core.Answer, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fetchBatchRetry(ranges)
}

// fetchBatchRetry is fetchBatch under the retry policy. The whole batch
// is resent on a retryable failure — queries are idempotent reads, and
// nothing from a failed attempt is kept.
func (c *Client) fetchBatchRetry(ranges []core.Range) ([]*core.Answer, error) {
	var answers []*core.Answer
	err := c.withRetry(func() error {
		var oerr error
		answers, oerr = c.fetchBatch(ranges)
		return oerr
	})
	if err != nil {
		return nil, err
	}
	return answers, nil
}

func (c *Client) fetchBatch(ranges []core.Range) ([]*core.Answer, error) {
	if len(ranges) == 0 {
		return nil, nil
	}
	c.armDeadline()
	defer c.clearDeadline()
	// Advertise the highest certified summary we already hold so the
	// server sends only the delta instead of the full summary history
	// with every answer.
	var sinceSeq uint64
	if latest, ok := c.verifier.LatestSummary(); ok {
		sinceSeq = latest.Seq
	}
	req := wire.GetBuffer()
	for _, r := range ranges {
		req = wire.AppendQueryReq(req[:0], r.Lo, r.Hi, sinceSeq)
		if err := wire.WriteFrame(c.bw, req); err != nil {
			wire.PutBuffer(req)
			return nil, err
		}
	}
	wire.PutBuffer(req)
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	answers := make([]*core.Answer, len(ranges))
	var firstErr error
	for i := range ranges {
		data, err := c.readFrame()
		if err != nil {
			return nil, err // transport loss: responses can no longer be matched
		}
		ans, err := decodeAnswerFrame(data)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("client: query [%d,%d]: %w", ranges[i].Lo, ranges[i].Hi, err)
			}
			if !errors.Is(err, ErrServer) {
				return nil, firstErr // undecodable frame: cannot stay in sync
			}
			if errors.Is(err, ErrBadFrame) {
				// The server closes the connection after a frame it could
				// not parse; nothing further is coming.
				return nil, firstErr
			}
			continue
		}
		answers[i] = ans
		c.stats.Queries++
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return answers, nil
}

// Verify checks fetched answers: chain digests are recomputed and the
// aggregates batch-verified (core.Verifier.VerifyAnswers: chain.Jobs,
// then VerifyJobs through the scheme's batched primitives), attached
// summaries are ingested, and every record's freshness is bounded
// against the summaries held. ranges[i] is the selection answer i must
// cover.
//
// An answer attaches only the summaries published since its oldest
// result signature, so a session that skipped some periods can face a
// sequence gap; Verify bridges it by fetching the missing certified
// summaries from the server first (each is still signature-checked and
// chain-checked — the server is trusted for availability only). A
// freshness.ErrStale from Verify is the protocol working: a summary
// proves a newer version of an answered record exists, and the caller
// re-queries.
//
// Verification itself never retries — it runs at most once per fetched
// answer, on exactly the bytes that attempt delivered. Only the
// bridging fetches of missing certified summaries (plain idempotent 'S'
// reads) go through the retry machinery.
func (c *Client) Verify(answers []*core.Answer, ranges []core.Range) ([]*core.FreshnessReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.verify(answers, ranges)
}

func (c *Client) verify(answers []*core.Answer, ranges []core.Range) ([]*core.FreshnessReport, error) {
	if err := c.bridgeSummaries(answers); err != nil {
		return nil, err
	}
	reports, err := c.verifier.VerifyAnswers(answers, ranges, c.cfg.Now())
	if err != nil {
		return nil, err
	}
	c.stats.Verified += uint64(len(answers))
	return reports, nil
}

// bridgeSummaries ingests every summary attached to the answers, in
// sequence order, fetching any sequence numbers the attachments skip
// from the server. Ingestion is capped at the newest attached summary:
// summaries published after the answers were built are deliberately not
// pulled in here, so a batch is always judged against the stream as of
// its own construction.
func (c *Client) bridgeSummaries(answers []*core.Answer) error {
	held := uint64(0)
	if latest, ok := c.verifier.LatestSummary(); ok {
		held = latest.Seq
	}
	var max uint64
	bySeq := make(map[uint64]*freshness.Summary)
	for _, ans := range answers {
		if ans == nil {
			continue
		}
		for i := range ans.Summaries {
			s := &ans.Summaries[i]
			if s.Seq > held {
				bySeq[s.Seq] = s
			} else if err := c.checkHeld(s); err != nil {
				// The server re-sent a summary this session already
				// verified; it must be the same one.
				return err
			}
			if s.Seq > max {
				max = s.Seq
			}
		}
	}
	if max <= held {
		return nil
	}
	for seq := held + 1; seq <= max; seq++ {
		if latest, lok := c.verifier.LatestSummary(); lok && latest.Seq >= seq {
			// A reconnect re-anchor inside a gap fetch already ingested this
			// sequence number; just cross-check any attached copy.
			if s, aok := bySeq[seq]; aok {
				if err := c.checkHeld(s); err != nil {
					return err
				}
			}
			continue
		}
		s, ok := bySeq[seq]
		if !ok {
			// Fetch the next page of the gap from the server. Everything
			// up to seq-1 is ingested, so the cursor is just past the
			// newest held summary; the server's stream is TS-ordered and
			// seq-contiguous, so the page starts exactly at seq (capped
			// responses may need one fetch per page, hence per-seq).
			sinceTS := int64(0)
			if latest, lok := c.verifier.LatestSummary(); lok {
				sinceTS = latest.TS + 1
			}
			sums, err := c.fetchSummariesRetry(sinceTS)
			if err != nil {
				return err
			}
			for i := range sums {
				if sums[i].Seq >= seq && sums[i].Seq <= max {
					if _, dup := bySeq[sums[i].Seq]; !dup {
						bySeq[sums[i].Seq] = &sums[i]
					}
				}
			}
			if s, ok = bySeq[seq]; !ok {
				// The server answered the range request but omitted a
				// summary it is obligated to serve: an incomplete or
				// garbled response stream. Classified as corruption so
				// the session reconnects (and, in a fleet, fails over).
				return fmt.Errorf("%w: summary %d unavailable from answers and server", wire.ErrCorrupt, seq)
			}
		}
		if err := c.verifier.IngestSummary(*s); err != nil {
			return fmt.Errorf("client: summary %d: %w", seq, err)
		}
		c.stats.Summaries++
	}
	return nil
}

// Query is Fetch plus full verification of the answer.
func (c *Client) Query(lo, hi int64) (*core.Answer, *core.FreshnessReport, error) {
	answers, reports, err := c.QueryBatch([]core.Range{{Lo: lo, Hi: hi}})
	if err != nil {
		return nil, nil, err
	}
	return answers[0], reports[0], nil
}

// QueryBatch pipelines the queries and batch-verifies all answers in
// one pass. The fetch retries under the session policy; verification of
// each attempt's delivered bytes runs exactly once.
//
// A fleet session adds the verify-stage failover: when verification
// convicts the connected replica of tampering or divergence (evidence
// transport retries never see, because the fetch succeeded), the
// replica is quarantined and the batch re-fetched — and re-verified —
// through the next one, at most once per replica in the set. A
// freshness miss (ErrStale) is not misbehavior and is surfaced to the
// caller, who re-queries; with a lagging replica, failing over by hand
// (Reconnect) or waiting are both sound, because staleness is bounded
// by the summaries this session already holds, not by anything the
// replica says.
func (c *Client) QueryBatch(ranges []core.Range) ([]*core.Answer, []*core.FreshnessReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	hops := 1
	if c.fleet() {
		hops = len(c.addrs)
	}
	var lastErr error
	for hop := 0; hop < hops; hop++ {
		answers, err := c.fetchBatchRetry(ranges)
		if err == nil {
			var reports []*core.FreshnessReport
			if reports, err = c.verify(answers, ranges); err == nil {
				return answers, reports, nil
			}
		}
		if !c.fleet() || !quarantinable(err) {
			return nil, nil, err
		}
		lastErr = err
		if herr := c.hopReplica(err); herr != nil {
			return nil, nil, fmt.Errorf("%w (dropping replica for: %v)", herr, err)
		}
	}
	return nil, nil, lastErr
}

// SyncSummaries fetches the certified summaries published at or after
// since and ingests the ones newer than the session already holds
// (each is signature-checked and must chain onto the held sequence).
// It returns how many were ingested. A fresh session syncs from 0 —
// the log-in back-history fetch of §3.1 — and thereafter picks up new
// summaries from the answers themselves. The server caps each response
// frame, so the sync pages with advancing since-timestamps until a
// response comes back empty.
func (c *Client) SyncSummaries(since int64) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	err := c.withRetry(func() error {
		n, oerr := c.syncSummaries(since)
		total += n
		return oerr
	})
	return total, err
}

// syncSummaries is one sync attempt: page through the server's stream
// from since until a response comes back empty. Re-running it after a
// mid-sync fault is harmless — already-held sequence numbers are
// cross-checked and skipped, so the retry wrapper can treat the whole
// sync as idempotent.
func (c *Client) syncSummaries(since int64) (int, error) {
	total := 0
	cursor := since
	for {
		sums, err := c.fetchSummaries(cursor)
		if err != nil {
			return total, err
		}
		if len(sums) == 0 {
			return total, nil
		}
		n, err := c.ingestSummaries(sums)
		total += n
		if err != nil {
			return total, err
		}
		next := sums[len(sums)-1].TS + 1
		if next <= cursor {
			return total, nil // defensive: a non-advancing server cannot loop us
		}
		cursor = next
	}
}

// fetchSummariesRetry is fetchSummaries under the retry policy, for
// callers outside withRetry (the Verify gap bridge).
func (c *Client) fetchSummariesRetry(since int64) ([]freshness.Summary, error) {
	var sums []freshness.Summary
	err := c.withRetry(func() error {
		var oerr error
		sums, oerr = c.fetchSummaries(since)
		return oerr
	})
	if err != nil {
		return nil, err
	}
	return sums, nil
}

// fetchSummaries round-trips one summaries-since request.
func (c *Client) fetchSummaries(since int64) ([]freshness.Summary, error) {
	c.armDeadline()
	defer c.clearDeadline()
	req := wire.AppendSummariesReq(wire.GetBuffer(), since)
	werr := wire.WriteFrame(c.bw, req)
	wire.PutBuffer(req)
	if werr != nil {
		return nil, werr
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	data, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	kind, err := wire.Kind(data)
	if err != nil {
		return nil, err
	}
	if kind == wire.KindError {
		return nil, decodeErrorFrame(data)
	}
	return wire.DecodeSummaries(data)
}

// ingestSummaries folds a summary batch into the verifier, skipping
// sequence numbers already held.
func (c *Client) ingestSummaries(sums []freshness.Summary) (int, error) {
	held := uint64(0)
	if latest, ok := c.verifier.LatestSummary(); ok {
		held = latest.Seq
	}
	n := 0
	for _, s := range sums {
		if s.Seq <= held {
			if err := c.checkHeld(&s); err != nil {
				return n, err
			}
			continue
		}
		if err := c.verifier.IngestSummary(s); err != nil {
			return n, fmt.Errorf("client: summary %d: %w", s.Seq, err)
		}
		held = s.Seq
		n++
	}
	c.stats.Summaries += uint64(n)
	return n, nil
}
