// Package join implements the equi-join verification of Section 3.5 for
// σ(R) ⋈_{R.A=S.B} S.
//
// Matched R records are proven like selections σ_{B=r.A}(S) via
// signature chaining. For unmatched R records two mechanisms exist:
//
//   - BV (the prior art of Narasimha & Tsudik): return the boundary S.B
//     values enclosing r.A, anchored on a chained S signature. Duplicate
//     boundaries across consecutive unmatched records are elided.
//   - BF (this paper's contribution): return certified partitioned Bloom
//     filters on S.B. A negative probe proves non-membership outright; a
//     false positive falls back to a BV-style boundary proof. Eq. 3
//     models the resulting VO size and Eq. 4/Fig. 4 the configurations
//     where BF beats BV.
//
// The package provides both the fully verifiable protocol (Build/Verify)
// and a crypto-free size analyzer used to regenerate Figure 11.
package join

import (
	"fmt"
	"sort"

	"authdb/internal/bloom"
	"authdb/internal/chain"
	"authdb/internal/digest"
	"authdb/internal/sigagg"
)

// Method selects the unmatched-record proof mechanism.
type Method int

const (
	// BV proves unmatched records with boundary values.
	BV Method = iota
	// BF proves unmatched records with certified Bloom filters.
	BF
)

func (m Method) String() string {
	if m == BF {
		return "BF"
	}
	return "BV"
}

// Relation is an authenticated relation sorted on the join attribute,
// with chained signatures (duplicates allowed — the chain references
// RIDs).
type Relation struct {
	Recs []*chain.Record    // sorted by (Key, RID)
	Sigs []sigagg.Signature // parallel to Recs
}

// BuildRelation sorts and chain-signs the records.
func BuildRelation(scheme sigagg.Scheme, priv sigagg.PrivateKey, recs []*chain.Record) (*Relation, error) {
	// The Relation retains this slice, so always copy; only the sort is
	// skipped when the refs already arrive in chain order (workload
	// generators emit them sorted).
	sorted := make([]*chain.Record, len(recs))
	copy(sorted, recs)
	if !refsAscending(sorted) {
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Ref().Less(sorted[j].Ref()) })
	}
	rel := &Relation{Recs: sorted, Sigs: make([]sigagg.Signature, len(sorted))}
	for i, r := range sorted {
		left, right := chain.MinRef, chain.MaxRef
		if i > 0 {
			left = sorted[i-1].Ref()
		}
		if i < len(sorted)-1 {
			right = sorted[i+1].Ref()
		}
		d := chain.Digest(r, left, right)
		sig, err := scheme.Sign(priv, d[:])
		if err != nil {
			return nil, fmt.Errorf("join: sign rid %d: %w", r.RID, err)
		}
		rel.Sigs[i] = sig
	}
	return rel, nil
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

// neighbours returns the index range [lo, hi) of records with Key == v.
func (rel *Relation) equalRange(v int64) (int, int) {
	lo := sort.Search(len(rel.Recs), func(i int) bool { return rel.Recs[i].Key >= v })
	hi := sort.Search(len(rel.Recs), func(i int) bool { return rel.Recs[i].Key > v })
	return lo, hi
}

// selectEq builds the chained selection answer for σ_{B=v}(S).
func (rel *Relation) selectEq(scheme sigagg.Scheme, v int64) (*chain.Answer, error) {
	lo, hi := rel.equalRange(v)
	a := &chain.Answer{Lo: v, Hi: v, Left: chain.MinRef, Right: chain.MaxRef}
	var sigs []sigagg.Signature
	if lo < hi { // matches exist
		a.Records = rel.Recs[lo:hi]
		sigs = rel.Sigs[lo:hi]
		if lo > 0 {
			a.Left = rel.Recs[lo-1].Ref()
		}
		if hi < len(rel.Recs) {
			a.Right = rel.Recs[hi].Ref()
		}
	} else if lo > 0 { // empty: anchor on the predecessor
		a.Anchor = rel.Recs[lo-1]
		a.AnchorLeft = chain.MinRef
		if lo-1 > 0 {
			a.AnchorLeft = rel.Recs[lo-2].Ref()
		}
		a.Right = chain.MaxRef
		if lo < len(rel.Recs) {
			a.Right = rel.Recs[lo].Ref()
		}
		sigs = []sigagg.Signature{rel.Sigs[lo-1]}
	} else { // empty with v below the domain: anchor on the first record
		if len(rel.Recs) == 0 {
			return nil, fmt.Errorf("join: empty relation has no anchor for %d", v)
		}
		a.Anchor = rel.Recs[0]
		a.AnchorLeft = chain.MinRef
		a.Right = chain.MaxRef
		if len(rel.Recs) > 1 {
			a.Right = rel.Recs[1].Ref()
		}
		sigs = []sigagg.Signature{rel.Sigs[0]}
	}
	var err error
	a.Agg, err = scheme.Aggregate(sigs)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// FilterCert is the owner-certified partitioned Bloom filter on S.B.
type FilterCert struct {
	PF   *bloom.PartitionedFilter
	TS   int64
	Sigs []sigagg.Signature // one per partition, over partitionCertDigest
}

// partitionCertDigest binds a partition's boundaries and filter contents
// to the certification time.
func partitionCertDigest(p *bloom.Partition, ts int64) digest.Digest {
	w := digest.NewWriter(64)
	w.PutBytes([]byte("join-bloom-partition"))
	d := p.Digest()
	w.PutDigest(d)
	w.PutInt64(ts)
	return w.Sum()
}

// CertifyFilter builds and signs a partitioned Bloom filter over the
// relation's join attribute.
func CertifyFilter(scheme sigagg.Scheme, priv sigagg.PrivateKey, rel *Relation,
	valuesPerPartition int, bitsPerKey float64, ts int64) (*FilterCert, error) {

	pf, err := bloom.BuildPartitioned(rel.Keys(), valuesPerPartition, bitsPerKey)
	if err != nil {
		return nil, err
	}
	fc := &FilterCert{PF: pf, TS: ts, Sigs: make([]sigagg.Signature, pf.P())}
	for i := range pf.Partitions {
		d := partitionCertDigest(&pf.Partitions[i], ts)
		sig, err := scheme.Sign(priv, d[:])
		if err != nil {
			return nil, fmt.Errorf("join: certify partition %d: %w", i, err)
		}
		fc.Sigs[i] = sig
	}
	return fc, nil
}

// CertifyKeys builds and signs a partitioned Bloom filter directly over
// a set of join-attribute values, routing the per-partition certifications
// through the signing pool. This is the data-aggregator path for live
// relations, where the key set comes from the authenticated index rather
// than a materialized Relation snapshot.
func CertifyKeys(pool *sigagg.Pool, priv sigagg.PrivateKey, keys []int64,
	valuesPerPartition int, bitsPerKey float64, ts int64) (*FilterCert, error) {

	pf, err := bloom.BuildPartitioned(keys, valuesPerPartition, bitsPerKey)
	if err != nil {
		return nil, err
	}
	sigs, err := pool.SignIndexed(priv, pf.P(), func(i int) []byte {
		d := partitionCertDigest(&pf.Partitions[i], ts)
		return d[:]
	})
	if err != nil {
		return nil, fmt.Errorf("join: certify partitions: %w", err)
	}
	return &FilterCert{PF: pf, TS: ts, Sigs: sigs}, nil
}

// CheckPartitionProbe runs the keyless checks of one Bloom-negative
// unmatched proof: a partition is present, it covers the value, and the
// probe is genuinely negative. What remains is the owner's certification
// of that partition — PartitionJob.
func CheckPartitionProbe(up *UnmatchedProof) error {
	if up.Partition == nil {
		return fmt.Errorf("%w: unmatched value %d without partition", sigagg.ErrVerify, up.RA)
	}
	if up.RA < up.Partition.Lo || up.RA >= up.Partition.Hi {
		return fmt.Errorf("%w: partition does not cover %d", sigagg.ErrVerify, up.RA)
	}
	if up.Partition.Filter.MayContainUint64(uint64(up.RA)) {
		return fmt.Errorf("%w: filter probe positive for %d without boundary proof",
			sigagg.ErrVerify, up.RA)
	}
	return nil
}

// PartitionJob states the certification claim of one partition as a
// verification job: sig is the owner's signature over the partition's
// boundaries and filter contents at filterTS. Composite-VO verifiers
// batch one such job per distinct partition with the chain-backed
// proofs under the same key.
func PartitionJob(p *bloom.Partition, sig sigagg.Signature, filterTS int64) sigagg.VerifyJob {
	d := partitionCertDigest(p, filterTS)
	return sigagg.VerifyJob{Digests: [][]byte{d[:]}, Agg: sig}
}

// VerifyPartitionProof checks one Bloom-negative unmatched proof on its
// own: the probe checks, then the partition's certification.
func VerifyPartitionProof(scheme sigagg.Scheme, pub sigagg.PublicKey,
	up *UnmatchedProof, filterTS int64) error {

	if err := CheckPartitionProbe(up); err != nil {
		return err
	}
	job := PartitionJob(up.Partition, up.PartSig, filterTS)
	if err := scheme.AggregateVerify(pub, job.Digests, job.Agg); err != nil {
		return fmt.Errorf("partition cert for %d: %w", up.RA, err)
	}
	return nil
}

// UnmatchedProof proves one unmatched R record.
type UnmatchedProof struct {
	RA int64 // the unmatched R.A value

	// Bloom path (BF only): the probed partition with its certification.
	Partition *bloom.Partition
	PartSig   sigagg.Signature

	// Boundary path (BV always; BF on false positives): an anchored
	// empty-selection proof on S.
	Boundary *chain.Answer
}

// Answer is the verifiable equi-join result. The R-side selection proof
// (RAnswer) is produced by the caller's R relation; this answer covers
// the S side.
type Answer struct {
	Method    Method
	FilterTS  int64
	Matches   []*chain.Answer  // one per matched distinct R.A value
	Unmatched []UnmatchedProof // one per unmatched distinct R.A value
}

// Build constructs the S-side join proof for the given distinct R.A
// values against relation s.
func Build(scheme sigagg.Scheme, method Method, raValues []int64, s *Relation, fc *FilterCert) (*Answer, error) {
	ans := &Answer{Method: method}
	if fc != nil {
		ans.FilterTS = fc.TS
	}
	seen := map[int64]bool{}
	for _, v := range raValues {
		if seen[v] {
			continue
		}
		seen[v] = true
		lo, hi := s.equalRange(v)
		if lo < hi {
			m, err := s.selectEq(scheme, v)
			if err != nil {
				return nil, err
			}
			ans.Matches = append(ans.Matches, m)
			continue
		}
		up := UnmatchedProof{RA: v}
		if method == BF {
			if fc == nil {
				return nil, fmt.Errorf("join: BF method without a certified filter")
			}
			idx := fc.PF.Find(v)
			if idx < 0 {
				return nil, fmt.Errorf("join: empty filter")
			}
			part := &fc.PF.Partitions[idx]
			up.Partition = part
			up.PartSig = fc.Sigs[idx]
			if part.Filter.MayContainUint64(uint64(v)) {
				// False positive: fall back to boundaries.
				b, err := s.selectEq(scheme, v)
				if err != nil {
					return nil, err
				}
				up.Boundary = b
			}
		} else {
			b, err := s.selectEq(scheme, v)
			if err != nil {
				return nil, err
			}
			up.Boundary = b
		}
		ans.Unmatched = append(ans.Unmatched, up)
	}
	return ans, nil
}

// Verify checks the S-side join proof: every claimed match is authentic
// and complete, and every claimed non-match is proven either by a
// certified Bloom filter negative or by enclosing boundaries.
func Verify(scheme sigagg.Scheme, pub sigagg.PublicKey, ans *Answer) error {
	if ans == nil {
		return fmt.Errorf("%w: nil join answer", sigagg.ErrVerify)
	}
	for _, m := range ans.Matches {
		if len(m.Records) == 0 {
			return fmt.Errorf("%w: match proof with no records", sigagg.ErrVerify)
		}
		if err := chain.Verify(scheme, pub, m); err != nil {
			return fmt.Errorf("match %d: %w", m.Lo, err)
		}
	}
	for _, up := range ans.Unmatched {
		switch {
		case up.Boundary != nil:
			if len(up.Boundary.Records) != 0 {
				return fmt.Errorf("%w: non-match proof contains records for %d", sigagg.ErrVerify, up.RA)
			}
			if up.Boundary.Lo != up.RA || up.Boundary.Hi != up.RA {
				return fmt.Errorf("%w: boundary proof for wrong value", sigagg.ErrVerify)
			}
			if err := chain.Verify(scheme, pub, up.Boundary); err != nil {
				return fmt.Errorf("non-match %d: %w", up.RA, err)
			}
		case up.Partition != nil:
			if err := VerifyPartitionProof(scheme, pub, &up, ans.FilterTS); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: unmatched value %d without proof", sigagg.ErrVerify, up.RA)
		}
	}
	return nil
}
