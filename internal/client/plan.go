package client

import (
	"bytes"
	"errors"
	"fmt"

	"authdb/internal/chain"
	"authdb/internal/core"
	"authdb/internal/freshness"
	"authdb/internal/join"
	"authdb/internal/projection"
	"authdb/internal/query"
	"authdb/internal/sigagg"
	"authdb/internal/wire"
)

// The one path every query takes: compile the specs to plan bytes, fetch
// (k 'P' requests written before k 'C' answers are read), ingest each
// answer's summary tails, reduce every section of every answer to
// signature claims, close the claims once per signer key, judge
// freshness.

// relSession is one relation's verification state inside a session: its
// owner's public key and a dedicated verifier holding that relation's
// certified summary stream and claim memo.
type relSession struct {
	name     string
	pub      sigagg.PublicKey
	scheme   sigagg.Scheme // cfg.Scheme bound to this relation's owner
	verifier *core.Verifier
	batch    keyBatch // the claims under this key of the batch being verified
}

// heldSeq is the sequence number of the newest summary held (0 = none).
func (rs *relSession) heldSeq() uint64 {
	tip, _ := rs.verifier.LatestSummary()
	return tip.Seq
}

// ErrNoRelation reports a plan naming a relation the session holds no
// public key for. Deterministic, so fatal like any ErrConfig.
var ErrNoRelation = fmt.Errorf("%w: no public key for relation", ErrConfig)

// ErrComposite wraps structural defects in a composite answer — a
// missing section, a join proof for the wrong key set, a projection onto
// other slots than requested. The bytes decoded but the proof does not hang
// together, which from an honest server cannot happen: it is treated as
// verification failure (sigagg.ErrVerify), so a fleet session
// quarantines the replica.
var ErrComposite = fmt.Errorf("%w: composite answer malformed", sigagg.ErrVerify)

// QueryPlan runs one select-project-join query against the server's
// catalog and fully verifies the composite answer before returning it,
// with the outer scan's staleness bound in its Staleness field:
// the outer chain proof (authenticity + completeness over the selected
// range), the projection aggregate over attribute-level signatures, and
// the join section's resolution of every outer key exactly once — by the
// run containing it (one chained scan of the inner relation: its records
// are the matches, and a key inside it without a record is absent) or by
// a certified Bloom-filter negative (bounded-staleness, see below) — with
// every chain-backed piece also checked for freshness against the
// per-relation certified summary streams.
//
// A BF negative proves absence only as of the filter's certification
// time, so the client additionally bounds the filter's age against the
// inner relation's newest certified summary: newer than one ρ behind,
// or the answer is rejected as stale (freshness.ErrStale) and the
// caller re-queries — the same contract as record staleness.
func (c *Client) QueryPlan(spec *query.Spec) (*wire.Composite, error) {
	comps, err := c.QueryPlans([]*query.Spec{spec})
	if err != nil {
		return nil, err
	}
	return comps[0], nil
}

// QueryPlans pipelines the plans — one round trip for the batch — and
// verifies all the answers in one pass, closing the batch's signature
// claims once per signer key. The fetch retries under the session
// policy; verification of each attempt's delivered bytes runs exactly
// once.
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
//
// A bare scan's answer may be one the session holds (held.go): asked for
// again, the server confirmed it unchanged and the session re-checked it
// against the new summary tails. Its Outer chain is then the held one,
// shared with every later answer to the same plan, so callers must treat
// every returned answer as read-only.
func (c *Client) QueryPlans(specs []*query.Spec) ([]*wire.Composite, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queryPlans(specs)
}

func (c *Client) queryPlans(specs []*query.Spec) ([]*wire.Composite, error) {
	hops := 1
	if c.fleet() {
		hops = len(c.addrs)
	}
	var lastErr error
	for hop := 0; hop < hops; hop++ {
		comps, err := c.fetchRetry(specs)
		if err == nil {
			if err = c.verify(specs, comps); err == nil {
				return comps, nil
			}
		}
		if !c.fleet() || !quarantinable(err) {
			return nil, err
		}
		lastErr = err
		if herr := c.hopReplica(err); herr != nil {
			return nil, fmt.Errorf("%w (dropping replica for: %v)", herr, err)
		}
	}
	return nil, lastErr
}

// fetchRetry plans every spec — a spec the encoding cannot carry exactly
// never leaves the client — checks the session holds a key for each
// relation it names, and fetches the answers under the retry policy. The
// whole batch is resent on a retryable failure — queries are idempotent
// reads, and nothing from a failed attempt is kept.
func (c *Client) fetchRetry(specs []*query.Spec) ([]*wire.Composite, error) {
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrConfig, err)
		}
		if c.rels[spec.Rel] == nil {
			return nil, fmt.Errorf("%w %q", ErrNoRelation, spec.Rel)
		}
		if spec.Join != nil && c.rels[spec.Join.Rel] == nil {
			return nil, fmt.Errorf("%w %q", ErrNoRelation, spec.Join.Rel)
		}
	}
	var comps []*wire.Composite
	err := c.withRetry(func() (err error) {
		comps, err = c.fetch(specs)
		return err
	})
	return comps, err
}

// fetch writes one 'P' request per plan, then reads the answers back in
// order, decoded but not verified. If the server reported errors for
// some plans, every response is still drained (the connection stays
// usable) and the first error is returned.
func (c *Client) fetch(specs []*query.Spec) ([]*wire.Composite, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	c.armDeadline()
	defer c.clearDeadline()
	req := wire.GetBuffer()
	defer func() { wire.PutBuffer(req) }()
	var plan [planScratch]byte // marshalling scratch: a plan is some tens of bytes
	var sent []*heldAnswer     // sent[i]: the held answer request i named by its digest; nil while none did
	for i, spec := range specs {
		// Advertise, per named relation, the newest certified summary this
		// session holds, so tails carry only deltas.
		since := [2]wire.RelSince{{Name: spec.Rel, SinceSeq: c.rels[spec.Rel].heldSeq()}}
		n := 1
		if spec.Join != nil && spec.Join.Rel != spec.Rel {
			since[1] = wire.RelSince{Name: spec.Join.Rel, SinceSeq: c.rels[spec.Join.Rel].heldSeq()}
			n = 2
		}
		pb := spec.AppendTo(plan[:0])
		var digest uint64
		if bare(spec) {
			if a := c.held.sight(pb); a != nil {
				if sent == nil {
					sent = make([]*heldAnswer, len(specs))
				}
				sent[i], digest = a, a.digest
			}
		}
		req = wire.AppendPlanReq(req[:0], pb, since[:n], digest)
		if err := wire.WriteFrame(c.bw, req); err != nil {
			return nil, err
		}
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	comps := make([]*wire.Composite, len(specs))
	var firstErr error
	for i, spec := range specs {
		data, err := c.readFrame()
		if err != nil {
			return nil, err // transport loss: responses can no longer be matched
		}
		comp, err := c.decodeFrame(data)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("client: query %d of %d, [%d,%d] on %q: %w", i+1, len(specs), spec.Lo, spec.Hi, spec.Rel, err)
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
		if comp.Unchanged && sent != nil && sent[i] != nil {
			// The server says the held answer stands; verify holds it to the
			// tails. An unchanged reply to a request that named no held
			// answer keeps no sections, and verify refuses it.
			comp.Outer = sent[i].chain
		}
		comps[i] = comp
		c.stats.Queries++
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return comps, nil
}

// decodeFrame interprets one response frame as a composite answer or a
// server-reported error.
func (c *Client) decodeFrame(data []byte) (*wire.Composite, error) {
	if err := serverError(data); err != nil {
		return nil, err
	}
	return wire.DecodeComposite(data, c.names...)
}

// ---- verification ----

// claimTag places one signature claim in the batch — which plan's answer,
// which section of it — and is spelled out only for a claim that fails.
type claimTag struct {
	plan    int
	section string // secOuter, secProj or secJoin, completed by the relation's name
	rel     string
	cert    bool  // secJoin: a Bloom partition's certification…
	key     int64 // …presented for this outer key
}

const (
	secOuter = "outer relation"
	secProj  = "projection over"
	secJoin  = "join against"
)

// fail reports err against the tagged section.
func (t claimTag) fail(specs []*query.Spec, err error) error {
	if t.cert {
		return inPlan(specs, t.plan, fmt.Errorf("client: %s %q: partition cert for %d: %w", t.section, t.rel, t.key, err))
	}
	return inPlan(specs, t.plan, fmt.Errorf("client: %s %q: %w", t.section, t.rel, err))
}

// inPlan says which plan of a batch err is about.
func inPlan(specs []*query.Spec, plan int, err error) error {
	if len(specs) == 1 {
		return err
	}
	return fmt.Errorf("plan %d of %d: %w", plan+1, len(specs), err)
}

// keyBatch collects the signature claims of a batch of answers that fall
// under one signer key, so the key is closed with a single batch
// verification however many answers and sections named it. It lives in
// its relSession and is reused from one verification to the next.
type keyBatch struct {
	// Chain-backed claims — scans and a join's runs — have their
	// records' freshness judged once the key has closed.
	chains []*chain.Answer
	ctags  []claimTag
	projs  []*projection.Answer
	ptags  []claimTag
	// Claims with no answer behind them: partition certifications.
	jobs  []sigagg.VerifyJob
	jtags []claimTag
	// Set once the key has closed: lets the verifier remember the claims.
	admit func()
}

func (b *keyBatch) addChain(a *chain.Answer, t claimTag) {
	b.chains, b.ctags = append(b.chains, a), append(b.ctags, t)
}

func (b *keyBatch) addProj(p *projection.Answer, t claimTag) {
	b.projs, b.ptags = append(b.projs, p), append(b.ptags, t)
}

func (b *keyBatch) addJob(j sigagg.VerifyJob, t claimTag) {
	b.jobs, b.jtags = append(b.jobs, j), append(b.jtags, t)
}

func (b *keyBatch) empty() bool { return len(b.chains)+len(b.projs)+len(b.jobs) == 0 }

// reset empties the batch and drops what it referenced, keeping the
// arrays.
func (b *keyBatch) reset() {
	clear(b.chains)
	clear(b.projs)
	clear(b.jobs)
	*b = keyBatch{chains: b.chains[:0], ctags: b.ctags[:0], projs: b.projs[:0], ptags: b.ptags[:0],
		jobs: b.jobs[:0], jtags: b.jtags[:0]}
}

// close verifies every claim collected under rs's key with one batch
// (core.Verifier.CheckClaims: claims the verifier already closed are
// known by name, the rest digested on up to VerifyWorkers goroutines),
// leaving in the batch the function that lets rs's verifier remember
// them, for the caller to run once the batch has closed under every other
// key too. The batch has set semantics (sigagg.Scheme.VerifyJobs): a failure
// says some claim is false, not which, so a failed batch is gone through
// claim by claim, memo-free, and the error names the first section that
// does not stand on its own.
func (rs *relSession) close(specs []*query.Spec) error {
	b := &rs.batch
	var err error
	if b.admit, err = rs.verifier.CheckClaims(b.chains, b.projs, b.jobs); err == nil {
		return nil
	}
	for i, a := range b.chains {
		if cerr := chain.Verify(rs.scheme, rs.pub, a); cerr != nil {
			return b.ctags[i].fail(specs, cerr)
		}
	}
	for i, p := range b.projs {
		if perr := projection.Verify(rs.scheme, rs.pub, p); perr != nil {
			return b.ptags[i].fail(specs, perr)
		}
	}
	for i, j := range b.jobs {
		if jerr := rs.scheme.AggregateVerify(rs.pub, j.Digests, j.Agg); jerr != nil {
			return b.jtags[i].fail(specs, jerr)
		}
	}
	for _, tags := range [][]claimTag{b.ctags, b.ptags, b.jtags} {
		if len(tags) > 0 {
			return tags[0].fail(specs, err)
		}
	}
	return err
}

// verify checks every section of every answer of a batch; comps[i]
// answers specs[i]. Nothing in comps is trusted before it returns nil.
// On success comps[i].Staleness bounds the staleness of answer i's
// selected records.
//
// An answer whose outer chain is the one the session holds for its plan
// (held.go) — an "unchanged" reply fetch filled in, or the held chain
// handed back by a caller — closed its claims when it was admitted, and
// is only held to the freshly ingested tails. One those prove stale is
// dropped from the store and its plan fetched again in full, within this
// call. The verified bare scans that were not held are offered to the
// store.
func (c *Client) verify(specs []*query.Spec, comps []*wire.Composite) error {
	held, err := c.heldIn(specs, comps)
	if err != nil {
		return err
	}
	stale, err := c.verifyBatch(specs, comps, held)
	if err != nil {
		return err
	}
	if len(stale) > 0 {
		c.stats.HeldRefetches += uint64(len(stale))
		redo := make([]*query.Spec, len(stale))
		for k, i := range stale {
			redo[k] = specs[i]
		}
		fresh, err := c.fetchRetry(redo)
		if err != nil {
			return err
		}
		// Nothing of redo is held any more, so fetch named no digest and
		// heldIn finds nothing held; it still refuses a missing chain.
		again, err := c.heldIn(redo, fresh)
		if err == nil {
			_, err = c.verifyBatch(redo, fresh, again)
		}
		if err != nil {
			return err
		}
		for k, i := range stale {
			comps[i], held[i] = fresh[k], nil
		}
	}
	var plan [planScratch]byte
	for i, spec := range specs {
		if bare(spec) && (held == nil || held[i] == nil) {
			c.held.offer(spec.AppendTo(plan[:0]), comps[i])
		}
	}
	c.stats.Verified += uint64(len(comps))
	return nil
}

// heldIn finds the answers of the batch that are the session's held ones:
// held[i] is the held answer comps[i] is, and held is nil when none is.
// Every composite must have an outer chain by now.
func (c *Client) heldIn(specs []*query.Spec, comps []*wire.Composite) ([]*heldAnswer, error) {
	var held []*heldAnswer
	var plan [planScratch]byte
	for i, comp := range comps {
		if comp == nil || comp.Outer == nil {
			if comp != nil && comp.Unchanged {
				return nil, inPlan(specs, i, fmt.Errorf("%w: an unchanged reply to a request that named no held answer", ErrComposite))
			}
			return nil, fmt.Errorf("%w: no outer answer", ErrComposite)
		}
		if len(c.held.m) == 0 || !bare(specs[i]) {
			continue
		}
		if a := c.held.m[string(specs[i].AppendTo(plan[:0]))]; a != nil && a.chain == comp.Outer {
			if held == nil {
				held = make([]*heldAnswer, len(comps))
			}
			held[i] = a
		}
	}
	return held, nil
}

// verifyBatch is one pass of verify over answers fetched together:
// held[i] marks answer i as held (held may be nil). It returns the
// indices of the held answers the tails proved stale, having dropped
// them from the store.
//
// Every section is first checked for everything that needs no key and
// reduced to signature claims; the claims are then closed once per
// signer key across the whole batch — scans and projections under their
// relation's, runs and each listed certified Bloom partition under the
// inner relation's — instead of once per answer or section. Freshness is
// judged last, on records the closed batches have authenticated.
func (c *Client) verifyBatch(specs []*query.Spec, comps []*wire.Composite, held []*heldAnswer) (stale []int, err error) {
	// 1. Summary tails feed each relation's freshness state (gaps bridged
	// over 'T' requests).
	for _, comp := range comps {
		for _, tail := range comp.Tails {
			rs, ok := c.rels[tail.Rel]
			if !ok {
				return nil, fmt.Errorf("%w: tail for unknown relation %q", ErrComposite, tail.Rel)
			}
			if err := c.relIngest(rs, tail.Summaries); err != nil {
				return nil, err
			}
		}
	}
	defer func() {
		for _, rs := range c.rels {
			rs.batch.reset()
		}
	}()
	// 2. Claims, per signer key. A held answer's closed when it was
	// admitted.
	var proofs []join.Resolution // proofs[i] is how answer i's join section resolved its outer keys; nil while no plan joins
	for i, spec := range specs {
		comp := comps[i]
		if held != nil && held[i] != nil {
			continue
		}
		scan := claimTag{plan: i, section: secOuter, rel: spec.Rel}
		if comp.Outer.Lo != spec.Lo || comp.Outer.Hi != spec.Hi {
			return nil, scan.fail(specs, fmt.Errorf("%w: answer is for range [%d,%d], not [%d,%d]",
				sigagg.ErrVerify, comp.Outer.Lo, comp.Outer.Hi, spec.Lo, spec.Hi))
		}
		outer := &c.rels[spec.Rel].batch
		outer.addChain(comp.Outer, scan)
		// Projection: present exactly when requested, aggregate over the
		// owner's attribute signatures.
		if err := projectionJobs(spec, comp, outer, i); err != nil {
			return nil, inPlan(specs, i, err)
		}
		// Join: every outer key resolved exactly once. A self-join's claims
		// fall under the outer key too.
		if spec.Join == nil {
			if comp.Join != nil {
				return nil, inPlan(specs, i, fmt.Errorf("%w: unrequested join section", ErrComposite))
			}
			continue
		}
		if proofs == nil {
			proofs = make([]join.Resolution, len(specs))
		}
		if proofs[i], err = joinJobs(spec, comp, &c.rels[spec.Join.Rel].batch, i); err != nil {
			return nil, inPlan(specs, i, err)
		}
	}
	// 3. One closing verification per signer key that has any claim — a
	// join answered by Bloom negatives alone puts certifications and no
	// chain under the inner key. Only a batch that closed under every key
	// is remembered under any.
	for _, name := range c.names {
		if rs := c.rels[name]; !rs.batch.empty() {
			if err := rs.close(specs); err != nil {
				return nil, err
			}
		}
	}
	for _, rs := range c.rels {
		if rs.batch.admit != nil {
			rs.batch.admit()
		}
	}
	// 4. Freshness of every disclosed record — boundary anchors included —
	// against its relation's summary stream.
	now := c.cfg.Now()
	for _, name := range c.names {
		rs := c.rels[name]
		for k, ca := range rs.batch.chains {
			bound, err := rs.verifier.Staleness(ca, now)
			if err != nil {
				return nil, fmt.Errorf("client: relation %q: %w", name, err)
			}
			if t := rs.batch.ctags[k]; t.section == secOuter {
				comps[t.plan].Staleness = bound
			}
		}
	}
	// A held answer is judged exactly as a fresh fetch of its records
	// would be; what that proves stale is fetched again (verify).
	for i, a := range held {
		if a == nil {
			continue
		}
		bound, err := c.rels[specs[i].Rel].verifier.Staleness(a.chain, now)
		switch {
		case errors.Is(err, freshness.ErrStale):
			c.held.drop(a)
			stale = append(stale, i)
		case err != nil:
			return nil, fmt.Errorf("client: relation %q: %w", specs[i].Rel, err)
		default:
			comps[i].Staleness = bound
			c.stats.HeldHits++
		}
	}
	// 5. Bloom negatives prove absence only as of the filter
	// certification: bound its age against the inner relation's newest
	// certified summary, which this answer's tail just delivered. One ρ
	// is the protocol's staleness unit; an older filter means the
	// server skipped re-certification past a summary close and its
	// negatives may hide newer inserts. A join answered by negatives
	// alone puts no chain under the inner relation, so step 4 never held
	// its stream to the clock: that is done here, by the same rule.
	for i, p := range proofs {
		if p.Negatives == 0 {
			continue
		}
		spec := specs[i]
		v := c.rels[spec.Join.Rel].verifier
		latest, ok := v.LatestSummary()
		if !ok {
			return nil, fmt.Errorf("%w: Bloom negatives without any certified summary for %q", ErrComposite, spec.Join.Rel)
		}
		if _, err := v.StreamAge(now); err != nil {
			return nil, fmt.Errorf("client: relation %q: %w", spec.Join.Rel, err)
		}
		if lag := latest.TS - comps[i].Join.FilterTS; lag > c.cfg.Protocol.Rho {
			return nil, fmt.Errorf("%w: join filter for %q certified at %d is %d behind the summary stream (ρ=%d)",
				freshness.ErrStale, spec.Join.Rel, comps[i].Join.FilterTS, lag, c.cfg.Protocol.Rho)
		}
	}
	for _, comp := range comps {
		if comp.Proj != nil {
			c.stats.AttrSigsVerif += uint64(len(comp.Proj.Rows) * len(comp.Proj.AttrIdxs))
		}
	}
	for i, p := range proofs {
		c.stats.JoinMatches += uint64(p.Matched)
		c.stats.JoinBFNegs += uint64(p.Negatives)
		if spec := specs[i]; spec.Join != nil && spec.Join.Method == join.BF {
			c.stats.JoinBFFalls += uint64(p.Absent)
		} else {
			c.stats.JoinBounds += uint64(p.Absent)
		}
	}
	return stale, nil
}

// projectionJobs checks answer plan's projection section's shape against
// the plan and the outer chain and adds its aggregate claim to the outer
// key's batch.
func projectionJobs(spec *query.Spec, comp *wire.Composite, batch *keyBatch, plan int) error {
	if spec.Attrs == nil {
		if comp.Proj != nil {
			return fmt.Errorf("%w: unrequested projection section", ErrComposite)
		}
		return nil
	}
	p := comp.Proj
	if p == nil {
		return fmt.Errorf("%w: projection section missing", ErrComposite)
	}
	if len(p.AttrIdxs) != len(spec.Attrs) {
		return fmt.Errorf("%w: projection onto %d slots, requested %d", ErrComposite, len(p.AttrIdxs), len(spec.Attrs))
	}
	for i, a := range spec.Attrs {
		if p.AttrIdxs[i] != a {
			return fmt.Errorf("%w: projection slot %d is attribute %d, requested %d", ErrComposite, i, p.AttrIdxs[i], a)
		}
	}
	// Row identity is the chain's by construction: the decoder gave row i
	// the RID and TS of chained record i. The chain proof authenticates
	// (RID, key, TS); the projection aggregate binds (RID, slot, value,
	// TS); together a swapped or stale value cannot survive both.
	batch.addProj(p, claimTag{plan: plan, section: secProj, rel: spec.Rel})
	return nil
}

// joinJobs checks answer plan's join section's shape and its coverage of
// the outer keys (join.Resolve: a merge walk over the sorted outer
// records, the runs and the negatives) and adds its signature claims —
// one per run, one per listed partition — to the inner key's batch.
func joinJobs(spec *query.Spec, comp *wire.Composite, batch *keyBatch, plan int) (join.Resolution, error) {
	j := comp.Join
	if j == nil {
		return join.Resolution{}, fmt.Errorf("%w: join section missing", ErrComposite)
	}
	if j.Method != spec.Join.Method {
		return join.Resolution{}, fmt.Errorf("%w: join used method %v, requested %v", ErrComposite, j.Method, spec.Join.Method)
	}
	// Each outer key must be resolved exactly once and nothing else may be
	// disclosed: a server must not be able to drop a proof (claiming fewer
	// results) or smuggle in extra matches. Outer records out of order make
	// this fail here; the outer chain's own check would refuse them next.
	res, err := j.Resolve(join.OuterKeys(comp.Outer.Records), nil)
	if err != nil {
		return res, fmt.Errorf("client: %s %q: %w", secJoin, spec.Join.Rel, err)
	}
	tag := claimTag{plan: plan, section: secJoin, rel: spec.Join.Rel}
	for _, run := range j.Runs {
		batch.addChain(run, tag)
	}
	// A partition is listed once (Resolve), so it has one certification:
	// under the batch's set semantics two listings trading signatures
	// would otherwise cancel out.
	for i := range j.Negatives {
		g := &j.Negatives[i]
		cert := tag
		cert.cert, cert.key = true, g.Keys[0]
		batch.addJob(join.PartitionJob(g.Partition, g.PartSig, j.FilterTS), cert)
	}
	return res, nil
}

// ---- certified summary streams ----

// checkHeld compares an incoming summary against the same-sequence
// summary the relation's verifier holds. A mismatch is accused as
// divergence only after the incoming summary's signature verifies:
// rollback evidence must be authenticated, or in-flight bit flips could
// forge "divergence" and kill honest sessions (the conflict is then
// just transport corruption, and retryable).
func checkHeld(v *core.Verifier, s *freshness.Summary) error {
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

// relIngest folds a run of one relation's summaries — an answer's tail
// or a 'T' page — into its verifier, in order. A sequence number the
// session holds is cross-checked against the held copy (rollback
// evidence); the next one is verified and ingested; and where the run
// skips ahead (a cold session's tail starts at the answer's oldest
// signature) the missing stretch is fetched first. The server caps each
// reply, so that pages from the newest summary held until the stretch is
// contiguous, giving up only when a reply brings nothing new. Ingestion
// never runs past the run's own last summary: an answer is judged
// against the stream as of its own construction.
func (c *Client) relIngest(rs *relSession, sums []freshness.Summary) error {
	admit := func(s *freshness.Summary) error {
		if s.Seq <= rs.heldSeq() {
			return checkHeld(rs.verifier, s)
		}
		if err := rs.verifier.IngestSummary(*s); err != nil {
			return fmt.Errorf("client: relation %q summary %d: %w", rs.name, s.Seq, err)
		}
		c.stats.Summaries++
		return nil
	}
	for i := range sums {
		s := &sums[i]
		for held := rs.heldSeq(); held+1 < s.Seq; {
			page, err := c.fetchSummaries(rs.name, held, 0)
			if err != nil {
				return err
			}
			for k := range page {
				if page[k].Seq >= s.Seq {
					break
				}
				if err := admit(&page[k]); err != nil {
					return err
				}
			}
			// Read again rather than count: a reconnect inside the fetch
			// re-anchors, which ingests too.
			now := rs.heldSeq()
			if now == held {
				return fmt.Errorf("%w: relation %q summaries %d..%d unavailable", wire.ErrCorrupt, rs.name, held+1, s.Seq-1)
			}
			held = now
		}
		if err := admit(s); err != nil {
			return err
		}
	}
	return nil
}

// resync reads rs's stream from the server — the summaries after
// sinceSeq, or since oldestTS when sinceSeq is 0 — folding each page into
// the session (relIngest: what is held is cross-checked, what is new
// ingested), and reports how many summaries it ingested. The server caps
// each page and, asked past its newest summary, sends that one again: the
// read is over at the page that brings nothing past what was asked for.
func (c *Client) resync(rs *relSession, sinceSeq uint64, oldestTS int64) (int, error) {
	start := rs.verifier.SummaryCount()
	for {
		page, err := c.fetchSummaries(rs.name, sinceSeq, oldestTS)
		if err == nil {
			err = c.relIngest(rs, page)
		}
		if err != nil || len(page) == 0 || page[len(page)-1].Seq <= sinceSeq {
			return rs.verifier.SummaryCount() - start, err
		}
		sinceSeq, oldestTS = page[len(page)-1].Seq, 0
	}
}

// reanchor re-reads every relation's stream from just before the newest
// summary the session holds, so the server must send that one again and
// the held/re-sent comparison always runs: a server that lost its
// certified history is convicted here (ErrDiverged), not silently
// followed, and anything published while the session was disconnected is
// caught up on. (Sequence numbers start at 1, so for a tip of 1 this is
// the request for the whole stream, which begins with the tip.) A
// relation the session holds nothing of has no anchor to lose: its first
// answer's tail starts the stream.
func (c *Client) reanchor() error {
	for _, name := range c.names {
		rs := c.rels[name]
		if tip, ok := rs.verifier.LatestSummary(); ok {
			if _, err := c.resync(rs, tip.Seq-1, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// fetchSummaries round-trips one 'T' request — rel's summaries after
// sinceSeq, or since oldestTS when sinceSeq is 0 — under the retry
// policy.
func (c *Client) fetchSummaries(rel string, sinceSeq uint64, oldestTS int64) ([]freshness.Summary, error) {
	var sums []freshness.Summary
	err := c.withRetry(func() error {
		c.armDeadline()
		defer c.clearDeadline()
		req := wire.AppendRelSumsReq(wire.GetBuffer(), rel, sinceSeq, oldestTS)
		werr := wire.WriteFrame(c.bw, req)
		wire.PutBuffer(req)
		if werr != nil {
			return werr
		}
		if err := c.bw.Flush(); err != nil {
			return err
		}
		data, err := c.readFrame()
		if err == nil {
			err = serverError(data)
		}
		if err == nil {
			sums, err = wire.DecodeSummaries(data)
		}
		return err
	})
	return sums, err
}
