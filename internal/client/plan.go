package client

import (
	"bytes"
	"fmt"

	"authdb/internal/core"
	"authdb/internal/freshness"
	"authdb/internal/join"
	"authdb/internal/query"
	"authdb/internal/sigagg"
	"authdb/internal/wire"
)

// relSession is one relation's verification state inside a catalog
// session: its owner's public key and a dedicated verifier holding that
// relation's certified summary stream.
type relSession struct {
	pub      sigagg.PublicKey
	scheme   sigagg.Scheme // cfg.Scheme bound to this relation's owner
	verifier *core.Verifier
}

// ErrNoRelation reports a plan naming a relation the session holds no
// public key for. Deterministic, so fatal like any ErrConfig.
var ErrNoRelation = fmt.Errorf("%w: no public key for relation", ErrConfig)

// ErrComposite wraps structural defects in a composite answer — a
// missing section, a join proof for the wrong key set, misaligned
// projection rows. The bytes decoded but the proof does not hang
// together, which from an honest server cannot happen: it is treated as
// verification failure (sigagg.ErrVerify), so a fleet session
// quarantines the replica.
var ErrComposite = fmt.Errorf("%w: composite answer malformed", sigagg.ErrVerify)

// QueryPlan runs one select-project-join query against the server's
// catalog and fully verifies the composite answer before returning it:
// the outer chain proof (authenticity + completeness over the selected
// range), the projection aggregate over attribute-level signatures, and
// per outer key exactly one join proof — a chained match, a certified
// Bloom-filter negative (bounded-staleness, see below), or an anchored
// boundary proof — with every chain-backed piece also checked for
// freshness against the per-relation certified summary streams.
//
// A BF negative proves absence only as of the filter's certification
// time, so the client additionally bounds the filter's age against the
// inner relation's newest certified summary: newer than one ρ behind,
// or the answer is rejected as stale (freshness.ErrStale) and the
// caller re-queries — the same contract as record staleness.
//
// The fetch retries under the session policy; verification runs exactly
// once per delivered answer. A fleet session fails over past replicas
// convicted by verification, like QueryBatch.
func (c *Client) QueryPlan(spec *query.Spec) (*wire.Composite, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rels == nil {
		return nil, fmt.Errorf("%w: no catalog relations configured", ErrConfig)
	}
	plan, err := query.Plan(spec, true)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	outerRS, ok := c.rels[spec.Rel]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrNoRelation, spec.Rel)
	}
	innerRS := outerRS
	if spec.Join != nil {
		if innerRS, ok = c.rels[spec.Join.Rel]; !ok {
			return nil, fmt.Errorf("%w %q", ErrNoRelation, spec.Join.Rel)
		}
	}
	planBytes := plan.Marshal()

	hops := 1
	if c.fleet() {
		hops = len(c.addrs)
	}
	var lastErr error
	for hop := 0; hop < hops; hop++ {
		var comp *wire.Composite
		err := c.withRetry(func() error {
			var oerr error
			comp, oerr = c.fetchPlan(planBytes, spec)
			return oerr
		})
		if err == nil {
			if err = c.verifyComposite(spec, comp, outerRS, innerRS); err == nil {
				c.stats.Plans++
				return comp, nil
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

// fetchPlan round-trips one 'J'/'P' request and decodes the composite
// answer without verifying it.
func (c *Client) fetchPlan(planBytes []byte, spec *query.Spec) (*wire.Composite, error) {
	c.armDeadline()
	defer c.clearDeadline()
	kind := wire.KindPlanSelect
	if spec.Join != nil {
		kind = wire.KindPlanJoin
	}
	// Advertise, per touched relation, the newest certified summary this
	// session holds, so tails carry only deltas.
	var since []wire.RelSince
	addSince := func(rel string) {
		for _, rs := range since {
			if rs.Name == rel {
				return
			}
		}
		var seq uint64
		if latest, ok := c.rels[rel].verifier.LatestSummary(); ok {
			seq = latest.Seq
		}
		since = append(since, wire.RelSince{Name: rel, SinceSeq: seq})
	}
	addSince(spec.Rel)
	if spec.Join != nil {
		addSince(spec.Join.Rel)
	}
	req, err := wire.AppendPlanReq(wire.GetBuffer(), kind, planBytes, since)
	if err != nil {
		wire.PutBuffer(req)
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
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
	fk, err := wire.Kind(data)
	if err != nil {
		return nil, err
	}
	switch fk {
	case wire.KindComposite:
		return wire.DecodeComposite(data)
	case wire.KindError:
		return nil, decodeErrorFrame(data)
	default:
		return nil, fmt.Errorf("%w: unexpected response kind %q", wire.ErrCorrupt, fk)
	}
}

// keyBatch collects the signature claims of one composite answer that
// fall under one signer key, each labelled with the section it came
// from, so the key is closed with a single batch verification.
type keyBatch struct {
	rs       *relSession
	jobs     []sigagg.VerifyJob
	sections []string // sections[i] names the part of the answer jobs[i] proves
}

// newKeyBatch returns a batch under rs's key with room for claims claims,
// so that collecting a composite's hundred-odd join proofs grows nothing.
func newKeyBatch(rs *relSession, claims int) *keyBatch {
	return &keyBatch{rs: rs, jobs: make([]sigagg.VerifyJob, 0, claims), sections: make([]string, 0, claims)}
}

func (b *keyBatch) add(section string, jobs ...sigagg.VerifyJob) {
	for _, j := range jobs {
		b.jobs = append(b.jobs, j)
		b.sections = append(b.sections, section)
	}
}

// close verifies every collected claim with one batch. The batch has
// set semantics (sigagg.BatchVerifier): a failure says some claim is
// false, not which, so the failed batch is re-verified claim by claim
// and the error names the first section that does not stand on its own.
func (b *keyBatch) close() error {
	err := b.rs.verifier.VerifyJobs(b.jobs)
	if err == nil {
		return nil
	}
	for i, j := range b.jobs {
		if jerr := b.rs.scheme.AggregateVerify(b.rs.pub, j.Digests, j.Agg); jerr != nil {
			return fmt.Errorf("client: %s: %w", b.sections[i], jerr)
		}
	}
	return fmt.Errorf("client: %s: %w", b.sections[0], err)
}

// verifyComposite checks every section of a composite answer. Nothing
// in comp is trusted before this returns nil.
//
// Every section is first checked for everything that needs no key and
// reduced to signature claims; the claims are then closed once per
// signer key — outer chain and projection under the outer relation's,
// matches, boundary proofs and each distinct certified Bloom partition
// under the inner relation's — instead of once per section. Freshness is
// judged last, on records the closed batches have authenticated.
func (c *Client) verifyComposite(spec *query.Spec, comp *wire.Composite, outerRS, innerRS *relSession) error {
	if comp.Outer == nil {
		return fmt.Errorf("%w: no outer answer", ErrComposite)
	}
	// 1. Per-relation summary tails feed each relation's freshness state
	// (gaps bridged over 'T' requests).
	for _, tail := range comp.Tails {
		rs, ok := c.rels[tail.Rel]
		if !ok {
			return fmt.Errorf("%w: tail for unknown relation %q", ErrComposite, tail.Rel)
		}
		if err := c.relIngest(tail.Rel, rs, tail.Summaries); err != nil {
			return err
		}
	}
	// Claims per key, from the section counts: the outer chain and the
	// projection under the outer key; under the inner, at most one per
	// match and per non-match proof (Bloom probes of one partition share
	// its certification).
	outerClaims, innerClaims := 2, 0
	if comp.Join != nil {
		innerClaims = len(comp.Join.Matches) + len(comp.Join.Unmatched)
	}
	if innerRS == outerRS {
		outerClaims += innerClaims
	}
	// 2. Outer chain: authenticity + completeness over the selected
	// range.
	outerAns := []*core.Answer{{Chain: comp.Outer}}
	outerBatch := newKeyBatch(outerRS, outerClaims)
	jobs, err := outerRS.verifier.Jobs(outerAns, []core.Range{{Lo: spec.Lo, Hi: spec.Hi}})
	if err != nil {
		return fmt.Errorf("client: outer relation %q: %w", spec.Rel, err)
	}
	outerBatch.add(fmt.Sprintf("outer relation %q", spec.Rel), jobs...)
	// 3. Projection: present exactly when requested, rows 1:1 with the
	// chained records, aggregate over the owner's attribute signatures.
	if err := c.projectionJobs(spec, comp, outerBatch); err != nil {
		return err
	}
	// 4. Join: per outer key exactly one proof. A self-join's claims fall
	// under the outer key too.
	innerBatch := outerBatch
	if innerRS != outerRS {
		innerBatch = newKeyBatch(innerRS, innerClaims)
	}
	proofs, err := c.joinJobs(spec, comp, innerBatch)
	if err != nil {
		return err
	}
	// 5. One closing verification per signer key.
	if err := outerBatch.close(); err != nil {
		return err
	}
	if innerBatch != outerBatch && len(innerBatch.jobs) > 0 {
		if err := innerBatch.close(); err != nil {
			return err
		}
	}
	// 6. Freshness of every disclosed record — boundary anchors included
	// — against the per-relation summary streams.
	now := c.cfg.Now()
	if _, err := outerRS.verifier.Freshness(outerAns, now); err != nil {
		return fmt.Errorf("client: outer relation %q: %w", spec.Rel, err)
	}
	if spec.Join != nil {
		if _, err := innerRS.verifier.Freshness(proofs.chains, now); err != nil {
			return fmt.Errorf("client: join against %q: %w", spec.Join.Rel, err)
		}
		// Bloom negatives prove absence only as of the filter
		// certification: bound its age against the inner relation's newest
		// certified summary, which this answer's tail just delivered. One ρ
		// is the protocol's staleness unit; an older filter means the
		// server skipped re-certification past a summary close and its
		// negatives may hide newer inserts.
		if proofs.bfNegs > 0 {
			latest, ok := innerRS.verifier.LatestSummary()
			if !ok {
				return fmt.Errorf("%w: Bloom negatives without any certified summary for %q", ErrComposite, spec.Join.Rel)
			}
			if lag := latest.TS - comp.Join.FilterTS; lag > c.cfg.Protocol.Rho {
				return fmt.Errorf("%w: join filter for %q certified at %d is %d behind the summary stream (ρ=%d)",
					freshness.ErrStale, spec.Join.Rel, comp.Join.FilterTS, lag, c.cfg.Protocol.Rho)
			}
		}
	}
	if comp.Proj != nil {
		c.stats.AttrSigsVerif += uint64(len(comp.Proj.Rows) * len(comp.Proj.AttrIdxs))
	}
	c.stats.JoinMatches += proofs.matches
	c.stats.JoinBFNegs += proofs.bfNegs
	c.stats.JoinBFFalls += proofs.bfFalls
	c.stats.JoinBounds += proofs.bounds
	return nil
}

// projectionJobs checks the projection section's shape against the plan
// and the outer chain and adds its aggregate claim to the outer batch.
func (c *Client) projectionJobs(spec *query.Spec, comp *wire.Composite, batch *keyBatch) error {
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
	if len(p.Rows) != len(comp.Outer.Records) {
		return fmt.Errorf("%w: %d projected rows for %d records", ErrComposite, len(p.Rows), len(comp.Outer.Records))
	}
	// Row identity is pinned to the chain: same RID and same certified
	// timestamp, in the same order. The chain proof authenticates
	// (RID, key, TS); the projection aggregate binds (RID, slot, value,
	// TS); together a swapped or stale value cannot survive both.
	for i, rec := range comp.Outer.Records {
		if p.Rows[i].RID != rec.RID || p.Rows[i].TS != rec.TS {
			return fmt.Errorf("%w: projected row %d does not match chained record (rid %d/%d ts %d/%d)",
				ErrComposite, i, p.Rows[i].RID, rec.RID, p.Rows[i].TS, rec.TS)
		}
	}
	ds, err := p.Digests()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrComposite, err)
	}
	batch.add(fmt.Sprintf("projection over %q", spec.Rel), sigagg.VerifyJob{Digests: ds, Agg: p.Agg})
	return nil
}

// joinProofs is what joinJobs found in a join section: the chain-backed
// proofs, whose records still need their freshness judged once the
// batch has closed, and the per-kind counts for the session stats.
type joinProofs struct {
	chains                           []*core.Answer
	matches, bfNegs, bfFalls, bounds uint64
}

// joinJobs checks the join section's shape and coverage and adds its
// signature claims to the inner batch.
func (c *Client) joinJobs(spec *query.Spec, comp *wire.Composite, batch *keyBatch) (joinProofs, error) {
	var out joinProofs
	if spec.Join == nil {
		if comp.Join != nil {
			return out, fmt.Errorf("%w: unrequested join section", ErrComposite)
		}
		return out, nil
	}
	j := comp.Join
	if j == nil {
		return out, fmt.Errorf("%w: join section missing", ErrComposite)
	}
	if j.Method != spec.Join.Method {
		return out, fmt.Errorf("%w: join used method %v, requested %v", ErrComposite, j.Method, spec.Join.Method)
	}
	section := fmt.Sprintf("join against %q", spec.Join.Rel)
	// Coverage: each outer key must be resolved exactly once, and no
	// proof may reference a key outside the outer answer — a server must
	// not be able to drop a non-match proof (claiming fewer results) or
	// smuggle in extra matches.
	resolved := make(map[int64]bool, len(comp.Outer.Records))
	for _, rec := range comp.Outer.Records {
		resolved[rec.Key] = false
	}
	claim := func(v int64) error {
		done, ok := resolved[v]
		if !ok {
			return fmt.Errorf("%w: join proof for key %d outside the outer answer", ErrComposite, v)
		}
		if done {
			return fmt.Errorf("%w: key %d resolved twice", ErrComposite, v)
		}
		resolved[v] = true
		return nil
	}

	// Chain-backed proofs (matches and boundary non-matches): structure
	// and completeness for the point range [v, v].
	proofs := len(j.Matches) + len(j.Unmatched)
	out.chains = make([]*core.Answer, 0, proofs)
	chainRanges := make([]core.Range, 0, proofs)
	for _, m := range j.Matches {
		if m == nil || len(m.Records) == 0 {
			return out, fmt.Errorf("%w: match proof with no records", ErrComposite)
		}
		if m.Lo != m.Hi {
			return out, fmt.Errorf("%w: match proof covers [%d,%d], not a point", ErrComposite, m.Lo, m.Hi)
		}
		if err := claim(m.Lo); err != nil {
			return out, err
		}
		out.chains = append(out.chains, &core.Answer{Chain: m})
		chainRanges = append(chainRanges, core.Range{Lo: m.Lo, Hi: m.Hi})
		out.matches++
	}
	// Bloom negatives: every probe is checked against the partition it
	// carries, but the many probes that fall into one partition share its
	// one certification claim. certified maps a partition's bounds to the
	// first proof that presented it.
	certified := make(map[[2]int64]*join.UnmatchedProof)
	for i := range j.Unmatched {
		up := &j.Unmatched[i]
		if err := claim(up.RA); err != nil {
			return out, err
		}
		switch {
		case up.Boundary != nil:
			if len(up.Boundary.Records) != 0 {
				return out, fmt.Errorf("%w: non-match proof for %d contains records", ErrComposite, up.RA)
			}
			if up.Boundary.Lo != up.RA || up.Boundary.Hi != up.RA {
				return out, fmt.Errorf("%w: boundary proof for %d covers [%d,%d]", ErrComposite, up.RA, up.Boundary.Lo, up.Boundary.Hi)
			}
			out.chains = append(out.chains, &core.Answer{Chain: up.Boundary})
			chainRanges = append(chainRanges, core.Range{Lo: up.RA, Hi: up.RA})
			if j.Method == join.BF {
				out.bfFalls++
			} else {
				out.bounds++
			}
		case up.Partition != nil:
			if j.Method != join.BF {
				return out, fmt.Errorf("%w: Bloom proof for %d in a BV join", ErrComposite, up.RA)
			}
			if err := join.CheckPartitionProbe(up); err != nil {
				return out, fmt.Errorf("client: %s: %w", section, err)
			}
			bounds := [2]int64{up.Partition.Lo, up.Partition.Hi}
			first, seen := certified[bounds]
			if seen && first.Partition.Filter.Equal(up.Partition.Filter) {
				// The same partition again. Certification is deterministic,
				// so a second, different signature for it cannot also be
				// valid — and under set semantics two proofs trading their
				// signatures would otherwise cancel out.
				if !bytes.Equal(first.PartSig, up.PartSig) {
					return out, fmt.Errorf("%w: %s: partition [%d,%d) presented with two different certifications",
						ErrComposite, section, bounds[0], bounds[1])
				}
			} else {
				if !seen {
					certified[bounds] = up
				}
				batch.add(fmt.Sprintf("%s: partition cert for %d", section, up.RA),
					join.PartitionJob(up.Partition, up.PartSig, j.FilterTS))
			}
			out.bfNegs++
		default:
			return out, fmt.Errorf("%w: key %d unmatched without proof", ErrComposite, up.RA)
		}
	}
	for v, done := range resolved {
		if !done {
			return out, fmt.Errorf("%w: outer key %d has no join proof", ErrComposite, v)
		}
	}
	jobs, err := batch.rs.verifier.Jobs(out.chains, chainRanges)
	if err != nil {
		return out, fmt.Errorf("client: %s: %w", section, err)
	}
	batch.add(section, jobs...)
	return out, nil
}

// relIngest folds one relation's summary tail into its verifier,
// cross-checking re-sent sequence numbers (rollback evidence) and
// bridging sequence gaps with paged 'T' fetches.
func (c *Client) relIngest(rel string, rs *relSession, sums []freshness.Summary) error {
	held := uint64(0)
	if latest, ok := rs.verifier.LatestSummary(); ok {
		held = latest.Seq
	}
	for i := range sums {
		s := &sums[i]
		if s.Seq <= held {
			if err := checkHeldIn(rs.verifier, s); err != nil {
				return err
			}
			continue
		}
		// The tail skipped sequence numbers (a cold session's tail starts
		// at the answer's oldest signature): fetch the missing stretch
		// first. The server caps each reply, so page from the newest
		// summary held until the stretch is contiguous, giving up only
		// when a reply brings nothing new.
		for held+1 < s.Seq {
			fetched, err := c.fetchRelSummariesRetry(rel, held)
			if err != nil {
				return err
			}
			before := held
			for k := range fetched {
				f := &fetched[k]
				if f.Seq <= held {
					if err := checkHeldIn(rs.verifier, f); err != nil {
						return err
					}
					continue
				}
				if f.Seq >= s.Seq {
					break
				}
				if err := rs.verifier.IngestSummary(*f); err != nil {
					return fmt.Errorf("client: relation %q summary %d: %w", rel, f.Seq, err)
				}
				held = f.Seq
				c.stats.Summaries++
			}
			if held == before {
				return fmt.Errorf("%w: relation %q summaries %d..%d unavailable", wire.ErrCorrupt, rel, held+1, s.Seq-1)
			}
		}
		if err := rs.verifier.IngestSummary(*s); err != nil {
			return fmt.Errorf("client: relation %q summary %d: %w", rel, s.Seq, err)
		}
		held = s.Seq
		c.stats.Summaries++
	}
	return nil
}

// fetchRelSummariesRetry round-trips one 'T' per-relation summary
// request under the retry policy.
func (c *Client) fetchRelSummariesRetry(rel string, sinceSeq uint64) ([]freshness.Summary, error) {
	var sums []freshness.Summary
	err := c.withRetry(func() error {
		var oerr error
		sums, oerr = c.fetchRelSummaries(rel, sinceSeq)
		return oerr
	})
	if err != nil {
		return nil, err
	}
	return sums, nil
}

func (c *Client) fetchRelSummaries(rel string, sinceSeq uint64) ([]freshness.Summary, error) {
	c.armDeadline()
	defer c.clearDeadline()
	req := wire.AppendRelSumsReq(wire.GetBuffer(), rel, sinceSeq, 0)
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
