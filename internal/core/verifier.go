package core

import (
	"fmt"
	"hash/maphash"
	"runtime"

	"authdb/internal/chain"
	"authdb/internal/freshness"
	"authdb/internal/projection"
	"authdb/internal/sigagg"
)

// Verifier is the user side: it trusts only the DataAggregator's public
// key and checks each answer for authenticity, completeness and
// freshness.
type Verifier struct {
	scheme  sigagg.Scheme
	pub     sigagg.PublicKey
	cfg     Config
	par     int
	checker *freshness.Checker
	memo    claimMemo // the claims this verifier has closed (claimmemo.go)
	clocked bool      // now is a clock reading (UseClock)
}

// NewVerifier creates a verifier for the DA's public key.
func NewVerifier(scheme sigagg.Scheme, pub sigagg.PublicKey, cfg Config) *Verifier {
	v := &Verifier{
		scheme:  scheme,
		pub:     pub,
		cfg:     cfg,
		par:     runtime.GOMAXPROCS(0),
		checker: freshness.NewChecker(scheme, pub),
	}
	v.memo.seed = maphash.MakeSeed()
	v.memo.newContentKey()
	return v
}

// SetParallelism caps the goroutines used to recompute record digests
// and verify aggregates (default GOMAXPROCS; 1 forces the serial
// one-answer-at-a-time path).
func (v *Verifier) SetParallelism(n int) {
	if n >= 1 {
		v.par = n
	}
}

// UseClock makes the now of every later Staleness and VerifyScan a
// reading of a clock in the owner's timebase, held against the newest
// summary (see Staleness). Without it now is only compared with record
// timestamps, and a server that stops publishing goes unnoticed until
// the verifier holds a newer summary from elsewhere.
func (v *Verifier) UseClock() { v.clocked = true }

// ClaimStats reports this verifier's claim-memo counters.
func (v *Verifier) ClaimStats() ClaimStats {
	return ClaimStats{
		ClaimHits:        v.memo.hits.Load(),
		ClaimMisses:      v.memo.misses.Load(),
		ContentHits:      v.memo.contentHits.Load(),
		BatchesWithoutEC: v.memo.batchesWithoutEC.Load(),
	}
}

// IngestSummary validates and stores one certified summary (from log-in
// history or an answer).
func (v *Verifier) IngestSummary(s freshness.Summary) error {
	return v.checker.Add(s)
}

// SummaryCount reports how many summaries the verifier holds.
func (v *Verifier) SummaryCount() int { return v.checker.Len() }

// LatestSummary returns the most recent summary held, so a session
// resuming a summary stream knows where to ingest from.
func (v *Verifier) LatestSummary() (freshness.Summary, bool) { return v.checker.Latest() }

// SummaryBySeq returns the held summary with the given sequence number,
// so a session can compare a re-delivered summary against what it
// already verified (divergence means the server's state rolled back).
func (v *Verifier) SummaryBySeq(seq uint64) (freshness.Summary, bool) { return v.checker.BySeq(seq) }

// VerifySummarySig checks a summary's certification signature alone,
// without ingesting it. Sessions use it to authenticate conflicting
// summary evidence before concluding the server's stream diverged: a
// rollback accusation must rest on validly signed data, or a garbled
// network could forge "divergence" out of bit flips.
func (v *Verifier) VerifySummarySig(s *freshness.Summary) error {
	d := s.Digest()
	if err := v.scheme.Verify(v.pub, d[:], s.Sig); err != nil {
		return fmt.Errorf("core: summary %d signature: %w", s.Seq, err)
	}
	return nil
}

// VerifyScan checks one range selection's chain answer for [lo, hi] at
// current time now, against the summaries the verifier holds: the range
// it claims, then its signature claim (CheckClaims, remembered once it
// closes), then every disclosed record's freshness (Staleness). It
// returns the answer's staleness bound. It is the in-process form of
// what a client runs on each plan's outer scan; the caller ingests the
// summary tail the server sent with the answer (IngestSummary) first.
func (v *Verifier) VerifyScan(ca *chain.Answer, lo, hi, now int64) (int64, error) {
	if ca == nil {
		return 0, fmt.Errorf("%w: empty answer", sigagg.ErrVerify)
	}
	if ca.Lo != lo || ca.Hi != hi {
		return 0, fmt.Errorf("%w: answer is for range [%d,%d], not [%d,%d]",
			sigagg.ErrVerify, ca.Lo, ca.Hi, lo, hi)
	}
	admit, err := v.CheckClaims([]*chain.Answer{ca}, nil, nil)
	if err != nil {
		return 0, err
	}
	admit()
	return v.Staleness(ca, now)
}

// CheckClaims closes a batch of signature claims under the verifier's
// key: one per chain answer, one per projection answer, and the bare
// jobs (claims with no answer behind them, such as a Bloom partition's
// certification). It is the one door every claim goes through, and where
// a claim gets its name (claimmemo.go has the rule and why it is sound):
// a claim this verifier has closed before is known by its content, or by
// its digests, and a repeat inside the batch is dropped; the rest go
// through the scheme's batched primitives, one closing operation per
// worker chunk. A batch whose claims are all known does no curve
// arithmetic at all, and one whose claims are all known by content
// computes no digest either. Every chain's structure is checked
// (chain.(*Answer).CheckStructure) whatever the memo holds. Set semantics
// apply (sigagg.Scheme.VerifyJobs): an error says some claim is false, not
// which.
//
// On success it returns the function that remembers the batch's claims.
// A caller closing one answer batch under several keys calls the admits
// only after every key has closed, so that a batch with a false claim
// under any key leaves no verifier remembering any of it; a caller that
// drops admit merely forgets claims it verified.
func (v *Verifier) CheckClaims(chains []*chain.Answer, projs []*projection.Answer, jobs []sigagg.VerifyJob) (admit func(), err error) {
	np := len(chains) + len(projs)
	if np+len(jobs) == 0 {
		return func() {}, nil
	}
	sc := v.memo.takeScratch()
	live, err := v.memo.check(sc, chains, projs, jobs, v.par)
	if err == nil && len(live) > 0 {
		err = sigagg.NewPool(v.scheme, v.par).VerifyAll(v.pub, live)
	}
	if err != nil {
		v.memo.putScratch(sc)
		return nil, err
	}
	return func() {
		v.memo.admit(sc, np)
		v.memo.putScratch(sc)
	}, nil
}

// Staleness bounds every disclosed record of one authenticated chain
// against the certified summaries held (§3.1) and returns the worst
// bound: ρ normally, 2ρ for a record certified in the most recent closed
// period. The anchor of an empty answer is a disclosed record and is
// checked too.
//
// A clocked verifier (UseClock) also holds the stream to the clock. The
// owner closes a period every ρ, so the newest summary held must have
// closed at most ρ + δ before now; with no summary held, every record
// must have been certified at most ρ + δ before now. Otherwise the answer
// is refused as stale, whatever the records say. The bound then counts
// the time since that close (or that certification) on top.
func (v *Verifier) Staleness(ca *chain.Answer, now int64) (int64, error) {
	limit := v.cfg.Rho + v.cfg.Skew
	var lag int64 // since the newest summary held closed; 0 without a clock
	latest, held := v.checker.Latest()
	if v.clocked && held {
		if lag = now - latest.TS; lag > limit {
			return 0, fmt.Errorf("core: %w: the newest summary held closed at %d, %d before now (ρ+δ = %d): the stream has stopped",
				freshness.ErrStale, latest.TS, lag, limit)
		}
		lag = max(lag, 0)
	}
	var worst int64
	check := func(rec *Record) error {
		bound, err := v.checker.CheckFresh(slot(rec.RID), rec.TS, now, v.cfg.Rho)
		if err != nil {
			return fmt.Errorf("core: rid %d: %w", rec.RID, err)
		}
		if v.clocked && !held {
			age := now - rec.TS
			if age > limit {
				return fmt.Errorf("core: rid %d: %w: certified at %d, %d before now, and no summary held (ρ+δ = %d)",
					rec.RID, freshness.ErrStale, rec.TS, age, limit)
			}
			bound += max(age, 0)
		}
		worst = max(worst, bound+lag)
		return nil
	}
	for _, rec := range ca.Records {
		if err := check(rec); err != nil {
			return 0, err
		}
	}
	if ca.Anchor != nil {
		if err := check(ca.Anchor); err != nil {
			return 0, err
		}
	}
	return worst, nil
}
