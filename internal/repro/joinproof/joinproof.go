// Package joinproof is the stand-alone §3.5 join-proof builder the
// paper's evaluation runs on: a materialized, chain-signed relation S
// sorted on its join attribute, the S side of σ(R) ⋈_{R.A=S.B} S built
// over it (Build) and checked end to end (Verify).
//
// The service never materializes a relation this way: the query engine
// assembles the same join.Answer from a live QueryServer, and the client
// verifies it piece by piece (join.Resolve, the runs' chain proofs,
// join.PartitionJob). Build and Verify are the reference both are tested
// against, and what authbench fig11 and examples/joinaudit size and
// audit.
package joinproof

import (
	"fmt"
	"slices"
	"sort"

	"authdb/internal/chain"
	"authdb/internal/join"
	"authdb/internal/sigagg"
)

// Relation is an authenticated relation sorted on the join attribute,
// with chained signatures (duplicates allowed — the chain references
// RIDs).
type Relation struct {
	Recs []*chain.Record    // sorted by (Key, RID)
	Sigs []sigagg.Signature // parallel to Recs
}

// BuildRelation sorts and chain-signs the records through the signing
// pool, as the owner does.
func BuildRelation(scheme sigagg.Scheme, priv sigagg.PrivateKey, recs []*chain.Record) (*Relation, error) {
	// The Relation retains this slice, so always copy; only the sort is
	// skipped when the refs already arrive in chain order (workload
	// generators emit them sorted).
	sorted := make([]*chain.Record, len(recs))
	copy(sorted, recs)
	if !refsAscending(sorted) {
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Ref().Less(sorted[j].Ref()) })
	}
	sigs, err := sigagg.NewPool(scheme, 0).SignIndexed(priv, len(sorted), func(i int) []byte {
		left, right := chain.MinRef, chain.MaxRef
		if i > 0 {
			left = sorted[i-1].Ref()
		}
		if i < len(sorted)-1 {
			right = sorted[i+1].Ref()
		}
		d := chain.Digest(sorted[i], left, right)
		return d[:]
	})
	if err != nil {
		return nil, fmt.Errorf("joinproof: sign relation: %w", err)
	}
	return &Relation{Recs: sorted, Sigs: sigs}, nil
}

// refsAscending reports whether recs are already in (Key, RID) order.
func refsAscending(recs []*chain.Record) bool {
	for i := 1; i < len(recs); i++ {
		if recs[i].Ref().Less(recs[i-1].Ref()) {
			return false
		}
	}
	return true
}

// Keys returns the (non-distinct) join-attribute values in order.
func (rel *Relation) Keys() []int64 {
	out := make([]int64, len(rel.Recs))
	for i, r := range rel.Recs {
		out[i] = r.Key
	}
	return out
}

// selectRange builds the chained selection answer for σ_{lo<=B<=hi}(S).
func (rel *Relation) selectRange(scheme sigagg.Scheme, lo, hi int64) (*chain.Answer, error) {
	from := sort.Search(len(rel.Recs), func(i int) bool { return rel.Recs[i].Key >= lo })
	to := sort.Search(len(rel.Recs), func(i int) bool { return rel.Recs[i].Key > hi })
	a := &chain.Answer{Lo: lo, Hi: hi, Left: chain.MinRef, Right: chain.MaxRef}
	var sigs []sigagg.Signature
	switch {
	case from < to: // records inside the range
		a.Records = rel.Recs[from:to]
		sigs = rel.Sigs[from:to]
		if from > 0 {
			a.Left = rel.Recs[from-1].Ref()
		}
		if to < len(rel.Recs) {
			a.Right = rel.Recs[to].Ref()
		}
	case len(rel.Recs) == 0:
		return nil, fmt.Errorf("joinproof: empty relation has no anchor for [%d,%d]", lo, hi)
	default: // empty: anchor on the predecessor, or below the domain on the first record
		at := max(from-1, 0)
		a.Anchor = rel.Recs[at]
		a.AnchorLeft = chain.MinRef
		if at > 0 {
			a.AnchorLeft = rel.Recs[at-1].Ref()
		}
		if at+1 < len(rel.Recs) {
			a.Right = rel.Recs[at+1].Ref()
		}
		sigs = rel.Sigs[at : at+1]
	}
	var err error
	a.Agg, err = scheme.AggregateInto(nil, sigs)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// CertifyFilter is join.CertifyKeys over a materialized relation's join
// attribute.
func CertifyFilter(scheme sigagg.Scheme, priv sigagg.PrivateKey, rel *Relation,
	valuesPerPartition int, bitsPerKey float64, ts int64) (*join.FilterCert, error) {
	return join.CertifyKeys(sigagg.NewPool(scheme, 0), priv, rel.Keys(), valuesPerPartition, bitsPerKey, ts)
}

// distinct returns the distinct values of vs in ascending order.
func distinct(vs []int64) []int64 {
	out := slices.Clone(vs)
	slices.Sort(out)
	return slices.Compact(out)
}

// Build constructs the S-side join proof for the given R.A values
// against relation s.
func Build(scheme sigagg.Scheme, method join.Method, raValues []int64, s *Relation, fc *join.FilterCert) (*join.Answer, error) {
	ans := &join.Answer{Method: method}
	keys := distinct(raValues)
	var (
		live []bool // nil for BV: every key needs a live proof
		part []int
	)
	if method == join.BF {
		if fc == nil {
			return nil, fmt.Errorf("joinproof: BF method without a certified filter")
		}
		var err error
		if live, part, err = fc.Probe(keys); err != nil {
			return nil, err
		}
	}
	next := 0 // first key no run has covered
	for _, ext := range join.Extents(keys, live, s.Keys(), false) {
		for ; next < ext[0]; next++ {
			ans.AddNegative(fc, part[next], keys[next])
		}
		run, err := s.selectRange(scheme, keys[ext[0]], keys[ext[1]])
		if err != nil {
			return nil, err
		}
		ans.Runs = append(ans.Runs, run)
		next = ext[1] + 1
	}
	for ; next < len(keys); next++ {
		ans.AddNegative(fc, part[next], keys[next])
	}
	return ans, nil
}

// Verify checks the S-side join proof against the R.A values it must
// resolve: the section's shape and coverage (join.Answer.Resolve), every
// run authentic and complete, every listed partition certified.
func Verify(scheme sigagg.Scheme, pub sigagg.PublicKey, raValues []int64, ans *join.Answer) (join.Resolution, error) {
	if ans == nil {
		return join.Resolution{}, fmt.Errorf("%w: nil join answer", sigagg.ErrVerify)
	}
	res, err := ans.Resolve(distinct(raValues), nil)
	if err != nil {
		return res, err
	}
	for _, run := range ans.Runs {
		if err := chain.Verify(scheme, pub, run); err != nil {
			return res, fmt.Errorf("run [%d,%d]: %w", run.Lo, run.Hi, err)
		}
	}
	for i := range ans.Negatives {
		g := &ans.Negatives[i]
		job := join.PartitionJob(g.Partition, g.PartSig, ans.FilterTS)
		if err := scheme.AggregateVerify(pub, job.Digests, job.Agg); err != nil {
			return res, fmt.Errorf("partition cert for %d: %w", g.Keys[0], err)
		}
	}
	return res, nil
}

// Z evaluates the Fig. 4 configuration surface
// z = 0.0432·(IA/IB) + 2·(p/IB); BF is viable when z < 0.75 (for the
// primary-key/foreign-key case with 8 bits per distinct value and
// |S.B| = 4).
func Z(iaOverIB, ibOverP float64) float64 {
	if ibOverP == 0 {
		return 1e18
	}
	return 0.0432*iaOverIB + 2/ibOverP
}

// ZThreshold is the Fig. 4 viability plane.
const ZThreshold = 0.75
