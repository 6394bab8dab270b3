// Package client is the user side of the networked serving protocol: a
// verifying client that speaks the wire format over TCP, pipelines its
// queries, and checks every answer for authenticity, completeness (the
// signature claims closed once per signer key by core.Verifier.CheckClaims,
// which recomputes chain digests from the received bytes for the claims
// it has not closed before and knows the rest by name) and freshness
// against the certified summary streams it tracks from the server.
//
// There is one path. Every query is a plan (query.Spec), run by
// QueryPlan or QueryPlans: a range selection is the leaf plan, with no
// projection and no join. plan.go is that path — one function writes
// requests ('P'), one decodes answers ('C'), one ingests summaries, one
// closes signature claims — held.go keeps the verified answers of the
// bare scans a session repeats, so the server need only confirm them
// unchanged, and this file is the session around it: connection, retry
// loop, errors, and SyncSummaries.
//
// The server is untrusted: nothing it sends is believed until the
// verifier has checked it against the data aggregator's public key.
//
// Ownership: a Client owns one connection and one verifier per relation,
// and every exported method serializes on an internal mutex — concurrent
// callers are safe but take turns, so a retry loop in one goroutine can
// never interleave its frames with another's. For parallel query
// throughput, dial one Client per goroutine.
//
// The network is no more trusted than the server. With a RetryPolicy
// configured the client survives hostile transports: per-request
// deadlines, automatic reconnect with capped exponential backoff and
// jitter, idempotent resend of 'P'/'T' requests, and backoff on
// ErrOverloaded shed responses. Every reconnect re-anchors the
// certified summary stream of every relation the session holds (the
// ErrDiverged machinery), so flaky networking can never trick a session
// into trusting a rolled-back or stale server — faults may fail
// requests, but they can never widen what the client accepts.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"authdb/internal/core"
	"authdb/internal/sigagg"
	"authdb/internal/wire"
)

// Config parameterizes a client session.
type Config struct {
	// Scheme and Pub identify the data aggregator whose certifications
	// the client trusts. Both are required. Pub is the owner's key of
	// core.DefaultRelation, the relation SyncSummaries and SummaryCount
	// address.
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
	// Now supplies the protocol clock used for freshness bounds, in the
	// owner's timebase. When set, every relation's verifier holds the
	// newest summary it has to the clock (core.Verifier.UseClock): a
	// server that stops publishing is refused as stale ρ + δ
	// (Protocol.Skew) after the last close it delivered. When nil, every
	// certified answer is simply checked against all summaries held.
	Now func() int64
	// VerifyWorkers caps the goroutines answer verification fans out
	// across (digest recomputation, batched signature checks).
	// 0 = GOMAXPROCS. Benchmarks pin it to 1 for per-core numbers.
	VerifyWorkers int
	// Relations maps further relation names to their owners' public keys.
	// A session's relations are these plus core.DefaultRelation under Pub
	// (unless Relations names that one itself); each gets its own verifier
	// (summary stream, freshness state, claim memo), and plans may name
	// any of them. Single-relation sessions leave it nil.
	Relations map[string]sigagg.PublicKey
}

// Stats are the client's monotonic counters.
type Stats struct {
	Queries     uint64 // answers fetched (every plan's, a range selection being one)
	Verified    uint64 // answers that passed full verification
	Summaries   uint64 // certified summaries ingested
	BytesIn     uint64 // response payload bytes received
	Retries     uint64 // operations resent after a retryable failure
	Reconnects  uint64 // connections re-established
	Shed        uint64 // operations rejected by server overload shedding
	Failovers   uint64 // reconnects that switched to a different replica
	Quarantines uint64 // replicas condemned for tampered/diverged state

	// What the verified answers' operator sections proved. A join section
	// is runs — one chained inner scan each, resolving every outer key
	// inside it — plus the Bloom negatives no run covers.
	JoinMatches   uint64 // outer keys a run disclosed inner records for
	JoinBFNegs    uint64 // outer keys a certified Bloom negative alone answered
	JoinBFFalls   uint64 // BF joins: outer keys a run proved absent (false positives, and negatives a run passed over)
	JoinBounds    uint64 // BV joins: outer keys a run proved absent
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
	ContentHits      uint64 // of ClaimHits, those known by content: no digest computed
	BatchesWithoutEC uint64 // closing batches all of whose claims were known

	// The held store (held.go): verified bare-scan answers the session
	// keeps, so a repeat that the server confirms unchanged costs the
	// summary tails alone.
	HeldHits      uint64 // answers served from the store: confirmed unchanged, and still fresh on the new tails
	HeldRefetches uint64 // held answers the new tails proved stale, dropped and fetched again in full
	HeldBytes     uint64 // bytes the store holds now (its budget is heldBudget)
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
	rng      *rand.Rand
	sleep    func(time.Duration) // indirection for deterministic tests
	retrying bool                // inside withRetry: nested calls run under the outer loop's policy
	stats    Stats

	// The session's relations (see plan.go) and their names, sorted: the
	// order reanchor walks them in, and the strings decoded tails reuse.
	rels  map[string]*relSession
	names []string

	held heldStore // verified bare-scan answers (held.go)

	// Fleet state (see fleet.go); empty for a single-server session.
	addrs []string         // the replica set, in failover order
	cur   int              // index of the replica currently connected
	quar  map[string]error // quarantined replicas and their evidence
}

// Dial connects to a query server at addr.
func Dial(addr string, cfg Config) (*Client, error) {
	c, err := newSession(cfg)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialTimeout("tcp", addr, cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	c.addr, c.conn = addr, conn
	c.resetBuffers()
	return c, nil
}

// newSession validates cfg and builds the session's verification state,
// not yet connected.
func newSession(cfg Config) (*Client, error) {
	if cfg.Scheme == nil || cfg.Pub == nil {
		return nil, fmt.Errorf("%w: scheme and public key are required", ErrConfig)
	}
	if cfg.Protocol == (core.Config{}) {
		cfg.Protocol = core.DefaultConfig()
	}
	clocked := cfg.Now != nil
	if !clocked {
		cfg.Now = func() int64 { return 1 << 62 }
	}
	seed := cfg.Retry.Seed
	if seed == 0 {
		seed = 1
	}
	c := &Client{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed)),
		sleep: time.Sleep,
		rels:  make(map[string]*relSession),
		held:  newHeldStore(heldBudget),
	}
	keys := map[string]sigagg.PublicKey{core.DefaultRelation: cfg.Pub}
	for name, pub := range cfg.Relations {
		keys[name] = pub // Relations may name the default relation itself
	}
	for name, pub := range keys {
		if name == "" || pub == nil {
			return nil, fmt.Errorf("%w: relation needs a name and a public key", ErrConfig)
		}
		// Aggregation parameters live with the signer's key, so each
		// relation verifies under a scheme bound to its own owner.
		bound, err := sigagg.Bind(cfg.Scheme, pub)
		if err != nil {
			return nil, fmt.Errorf("%w: relation %q: %v", ErrConfig, name, err)
		}
		v := core.NewVerifier(bound, pub, cfg.Protocol)
		if cfg.VerifyWorkers >= 1 {
			v.SetParallelism(cfg.VerifyWorkers)
		}
		if clocked {
			v.UseClock()
		}
		c.rels[name] = &relSession{name: name, pub: pub, scheme: bound, verifier: v}
		c.names = append(c.names, name)
	}
	sort.Strings(c.names)
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
// summaries, remembered claims) is discarded with the client.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// Reconnect dials addr again after a broken connection — typically a
// server restart — preserving the session's verifier state, then
// re-anchors the certified summary stream of every relation the session
// holds summaries of: the newest held summary is re-fetched from the new
// server and compared byte-for-byte against the held copy, and any newer
// summaries are ingested. A server that
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

// Stats snapshots the session counters, overlaying the scheme's
// verification fast-path counters (see the Stats field comments for
// their process-wide scope) and the session's claim-memo counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	if sp, ok := c.cfg.Scheme.(sigagg.VerifyStatsProvider); ok {
		vs := sp.VerifyStats()
		st.H2CCacheHits = vs.H2CCacheHits
		st.H2CCacheMisses = vs.H2CCacheMisses
		st.TableBuilds = vs.TableBuilds
	}
	for _, rs := range c.rels {
		cs := rs.verifier.ClaimStats()
		st.ClaimHits += cs.ClaimHits
		st.ClaimMisses += cs.ClaimMisses
		st.ContentHits += cs.ContentHits
		st.BatchesWithoutEC += cs.BatchesWithoutEC
	}
	st.HeldBytes = uint64(c.held.bytes)
	return st
}

// SummaryCount reports how many certified summaries of
// core.DefaultRelation the session holds.
func (c *Client) SummaryCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rels[core.DefaultRelation].verifier.SummaryCount()
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
//
// An operation that itself needs a round trip under retry (a summary
// fetch inside a re-anchor, inside a sync) calls withRetry again; the
// nested call runs op once, under the loop already in charge.
func (c *Client) withRetry(op func() error) error {
	if c.retrying {
		return op()
	}
	c.retrying = true
	defer func() { c.retrying = false }()
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
// allocated). The client never writes to it again: a composite decoded
// from it aliases it and keeps it alive, and the collector frees the two
// together.
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

// serverError is the error a server 'E' response reports — the sentinel
// its code selects, so callers (and the retry classifier) can react
// without parsing prose — and nil for a frame of any other kind, which
// the decoder of the expected kind goes on to read or refuse.
func serverError(data []byte) error {
	if kind, err := wire.Kind(data); err != nil || kind != wire.KindError {
		return nil
	}
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

// SyncSummaries fetches core.DefaultRelation's certified summaries
// published at or after since and ingests the ones newer than the
// session already holds (each is signature-checked and must chain onto
// the held sequence); the ones it does hold are compared against the
// held copies. It returns how many were ingested. A fresh session syncs
// from 0 — the log-in back-history fetch of §3.1 — and thereafter picks
// up new summaries from the answers themselves. A session's stream has no
// holes and starts at sequence number 1 (an answer may disclose a record
// of any age), so for a session that holds nothing since is where the
// reading starts, not where the stream does: what lies before the first
// page is fetched too. The server caps each response frame, so the sync
// pages until a response brings nothing past the last.
//
// Re-running it after a mid-sync fault is harmless — already-held
// sequence numbers are cross-checked and skipped — so the whole sync is
// retried as one idempotent operation.
func (c *Client) SyncSummaries(since int64) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	err := c.withRetry(func() error {
		n, oerr := c.resync(c.rels[core.DefaultRelation], 0, since)
		total += n
		return oerr
	})
	return total, err
}
