package core

import (
	"fmt"
	"io"

	"authdb/internal/anscache"
	"authdb/internal/freshness"
	"authdb/internal/sigagg"
)

// This file holds names benchmark/ compiles against and nothing else
// calls. Each is a thin wrapper over the one path: a one-relation
// catalog, QueryStamped plus SummariesTail, VerifyScan. A relation has no
// answer cache of its own (the plan engine's one cache serves every
// request), so Serve is an uncached Query.

// NewSystemWithRand is a one-relation catalog: NewCatalog plus
// AddRelation(DefaultRelation, rnd, nil, qsOpts).
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func NewSystemWithRand(scheme sigagg.Scheme, cfg Config, rnd io.Reader, qsOpts ...Option) (*Relation, error) {
	cat, err := NewCatalog(scheme, cfg, 0)
	if err != nil {
		return nil, err
	}
	return cat.AddRelation(DefaultRelation, rnd, nil, qsOpts)
}

// Query is QueryStamped with the summary tail a session that holds
// nothing is sent, SummariesTail(0, OldestSigTS), attached.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func (qs *QueryServer) Query(lo, hi int64) (*Answer, error) {
	ans, _, err := qs.QueryStamped(lo, hi)
	if err != nil {
		return nil, err
	}
	ans.Summaries = qs.SummariesTail(0, ans.OldestSigTS)
	return ans, nil
}

// SummariesSince is SummariesTail(0, ts).
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func (qs *QueryServer) SummariesSince(ts int64) []freshness.Summary {
	return qs.SummariesTail(0, ts)
}

// Range is the [Lo, Hi] selection an answer claims to cover.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
type Range struct {
	Lo, Hi int64
}

// VerifyAnswers ingests the summaries the answers carry, skipping every
// sequence number the verifier already holds unread, then checks answer
// i against ranges[i] with VerifyScan. Bound i is answer i's staleness
// bound.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func (v *Verifier) VerifyAnswers(answers []*Answer, ranges []Range, now int64) ([]int64, error) {
	if len(answers) != len(ranges) {
		return nil, fmt.Errorf("core: %d answers but %d ranges", len(answers), len(ranges))
	}
	for _, ans := range answers {
		if ans == nil {
			return nil, fmt.Errorf("%w: empty answer", sigagg.ErrVerify)
		}
		for _, s := range ans.Summaries {
			if tip, _ := v.LatestSummary(); s.Seq <= tip.Seq {
				continue
			}
			if err := v.IngestSummary(s); err != nil {
				return nil, fmt.Errorf("core: summary %d: %w", s.Seq, err)
			}
		}
	}
	bounds := make([]int64, len(answers))
	for i, ans := range answers {
		var err error
		if bounds[i], err = v.VerifyScan(ans.Chain, ranges[i].Lo, ranges[i].Hi, now); err != nil {
			return nil, err
		}
	}
	return bounds, nil
}

// ServeSource classifies how a Serve call was answered.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
type ServeSource uint8

// The sources benchmark/ tells apart. Serve reports ServedBuilt only.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
const (
	ServedBuilt ServeSource = iota + 1
	ServedHit
)

// Served is one Serve result.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
type Served struct {
	Answer *Answer
	Source ServeSource
}

// Release does nothing: nothing is held.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func (s *Served) Release() {}

// Serve is an uncached Query.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func (qs *QueryServer) Serve(lo, hi int64) (Served, error) {
	ans, err := qs.Query(lo, hi)
	if err != nil {
		return Served{}, err
	}
	return Served{Answer: ans, Source: ServedBuilt}, nil
}

// ServingStats is the zero cache accounting ServingStats returns.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
type ServingStats struct {
	Answers anscache.Stats
}

// ServingStats returns the zero value.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func (qs *QueryServer) ServingStats() ServingStats { return ServingStats{} }

// DisableAnswerCache does nothing.
//
// Compiled by benchmark/ only; ROADMAP item 2 deletes this.
func (qs *QueryServer) DisableAnswerCache() {}
