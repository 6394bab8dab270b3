// Package join implements the equi-join verification of Section 3.5 for
// σ(R) ⋈_{R.A=S.B} S.
//
// The S side of a join answer is a list of runs plus the Bloom negatives
// no run covers. A run is one ordinary chained selection (§3.3) over
// [first, last] of a maximal stretch of consecutive distinct R.A values
// between which S holds no record that joins nothing: its records are the
// matches, and every R.A value inside it without a record is absent by
// the chain's completeness — so the boundaries consecutive values share
// are shipped once, under one aggregate signature. Which values must sit
// inside a run depends on the mechanism for unmatched records:
//
//   - BV (the prior art of Narasimha & Tsudik): every value. A value's
//     enclosing S.B boundaries are the run's own boundary references or
//     neighbouring records of the run.
//   - BF (this paper's contribution): only the values the certified
//     partitioned Bloom filter on S.B admits. A negative probe proves
//     non-membership outright and ships the partition once for all the
//     values it answers; a false positive is a value inside a run with no
//     record. Eq. 3 models the resulting VO size and Eq. 4/Fig. 4 the
//     configurations where BF beats BV.
//
// Where S is dense against R every run is a single value and the section
// is the per-value proof list; where it is not — any primary-key /
// foreign-key join — the S side costs what a range answer costs.
//
// The package provides the fully verifiable protocol (Build/Verify) and
// the pieces a live executor and a batching client assemble it from:
// Extents, AddNegative, Resolve, PartitionJob.
package join

import (
	"fmt"
	"math"
	"slices"
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
		return nil, fmt.Errorf("join: sign relation: %w", err)
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
		return nil, fmt.Errorf("join: empty relation has no anchor for [%d,%d]", lo, hi)
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

// CertifyFilter is CertifyKeys over a materialized relation's join
// attribute.
func CertifyFilter(scheme sigagg.Scheme, priv sigagg.PrivateKey, rel *Relation,
	valuesPerPartition int, bitsPerKey float64, ts int64) (*FilterCert, error) {
	return CertifyKeys(sigagg.NewPool(scheme, 0), priv, rel.Keys(), valuesPerPartition, bitsPerKey, ts)
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

// PartitionJob states the certification claim of one partition as a
// verification job: sig is the owner's signature over the partition's
// boundaries and filter contents at filterTS. Composite-VO verifiers
// batch one such job per listed partition with the chain-backed proofs
// under the same key.
func PartitionJob(p *bloom.Partition, sig sigagg.Signature, filterTS int64) sigagg.VerifyJob {
	d := partitionCertDigest(p, filterTS)
	return sigagg.VerifyJob{Digests: [][]byte{d[:]}, Agg: sig}
}

// Negatives is one owner-certified partition of the filter on S.B and the
// R.A values its Bloom filter alone proves absent.
type Negatives struct {
	Partition *bloom.Partition
	PartSig   sigagg.Signature
	Keys      []int64 // ascending; each inside the partition and negative in its filter
}

// Answer is the verifiable S side of an equi-join over a set of distinct
// R.A values: every value is resolved exactly once, by the run that
// contains it or by a certified negative. The R-side selection proof is
// produced by the caller's R relation.
type Answer struct {
	Method    Method
	Runs      []*chain.Answer // ascending and disjoint; see the package comment
	Negatives []Negatives     // BF only: one entry per partition, ascending
	// FilterTS is the certification time of the filter behind Negatives —
	// what bounds how stale a negative can be. Each listed partition's
	// certification binds it; a section without negatives states none.
	FilterTS int64
}

// Extents applies the run rule. keys are the distinct R.A values,
// ascending; live[i] says keys[i] needs a live proof (nil: all do — BV);
// inner are S's join-attribute values inside [first live key, last live
// key], ascending, complete unless truncated, in which case nothing is
// known past the last of them. The result lists the runs as index pairs
// [a, b] into keys: each starts and ends at a live key, and between two
// of its keys S holds no value that is not itself a key — an unknown
// stretch counts as holding one, so a truncated walk leaves the keys
// beyond it one run each.
func Extents(keys []int64, live []bool, inner []int64, truncated bool) [][2]int {
	horizon := int64(math.MaxInt64)
	if truncated {
		horizon = inner[len(inner)-1]
	}
	var out [][2]int
	a, b, j := -1, -1, 0
	for i, v := range keys {
		if i > 0 {
			for j < len(inner) && inner[j] <= keys[i-1] {
				j++
			}
			if a >= 0 && (v > horizon || j < len(inner) && inner[j] < v) {
				out = append(out, [2]int{a, b})
				a = -1
			}
		}
		if live == nil || live[i] {
			if a < 0 {
				a = i
			}
			b = i
		}
	}
	if a >= 0 {
		out = append(out, [2]int{a, b})
	}
	return out
}

// Probe looks every key up in the certified filter: part[i] is the
// partition covering keys[i] and live[i] whether its Bloom filter admits
// the key — the keys that need a live proof; the others it proves absent.
func (fc *FilterCert) Probe(keys []int64) (live []bool, part []int, err error) {
	live, part = make([]bool, len(keys)), make([]int, len(keys))
	for i, v := range keys {
		if part[i] = fc.PF.Find(v); part[i] < 0 {
			return nil, nil, fmt.Errorf("join: empty filter")
		}
		live[i] = fc.PF.Partitions[part[i]].Filter.MayContainUint64(uint64(v))
	}
	return live, part, nil
}

// OuterKeys lists the distinct keys of records that are sorted by key: the
// R.A values a join section over them must resolve.
func OuterKeys(recs []*chain.Record) []int64 {
	keys := make([]int64, 0, len(recs))
	for _, rec := range recs {
		if n := len(keys); n == 0 || keys[n-1] != rec.Key {
			keys = append(keys, rec.Key)
		}
	}
	return keys
}

// distinct returns the distinct values of vs in ascending order.
func distinct(vs []int64) []int64 {
	out := slices.Clone(vs)
	slices.Sort(out)
	return slices.Compact(out)
}

// AddNegative records that partition part of fc proves key absent. Keys
// must arrive ascending, so a partition's keys arrive together.
func (a *Answer) AddNegative(fc *FilterCert, part int, key int64) {
	a.FilterTS = fc.TS
	p := &fc.PF.Partitions[part]
	if n := len(a.Negatives); n == 0 || a.Negatives[n-1].Partition != p {
		a.Negatives = append(a.Negatives, Negatives{Partition: p, PartSig: fc.Sigs[part]})
	}
	g := &a.Negatives[len(a.Negatives)-1]
	g.Keys = append(g.Keys, key)
}

// Build constructs the S-side join proof for the given R.A values
// against relation s.
func Build(scheme sigagg.Scheme, method Method, raValues []int64, s *Relation, fc *FilterCert) (*Answer, error) {
	ans := &Answer{Method: method}
	keys := distinct(raValues)
	var (
		live []bool // nil for BV: every key needs a live proof
		part []int
	)
	if method == BF {
		if fc == nil {
			return nil, fmt.Errorf("join: BF method without a certified filter")
		}
		var err error
		if live, part, err = fc.Probe(keys); err != nil {
			return nil, err
		}
	}
	next := 0 // first key no run has covered
	for _, ext := range Extents(keys, live, s.Keys(), false) {
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

// Resolution counts how a join section resolved the R.A values.
type Resolution struct {
	Matched   int // values with at least one S record, disclosed by the run containing them
	Absent    int // values inside a run without a record: absent by the chain's completeness
	Negatives int // values a certified Bloom negative alone answered
}

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{sigagg.ErrVerify}, args...)...)
}

// Resolve checks everything about the section that needs no key, against
// keys, the distinct R.A values in ascending order: runs ascending and
// disjoint, each holding at least one key and only records whose value is
// a key; partitions ascending and disjoint, each listed with keys it
// covers and its filter rejects; every key resolved exactly once, by the
// run containing it or by a negative; a filter time stated only with
// negatives. visit, if not nil, is called for each key in order with the S
// records that join it (none: the key is absent from S). What remains is
// each run's own chain proof and each partition's certification
// (PartitionJob) — and nothing Resolve reports may be used before those
// hold.
func (a *Answer) Resolve(keys []int64, visit func(key int64, matches []*chain.Record)) (Resolution, error) {
	var res Resolution
	if len(a.Negatives) == 0 && a.FilterTS != 0 {
		return res, malformed("filter time %d stated without a Bloom negative it dates", a.FilterTS)
	}
	if a.Method != BF && len(a.Negatives) > 0 {
		return res, malformed("Bloom negatives in a %v join", a.Method)
	}
	for i, run := range a.Runs {
		if run == nil || run.Lo > run.Hi {
			return res, malformed("run %d of %d is empty", i+1, len(a.Runs))
		}
		if i > 0 && run.Lo <= a.Runs[i-1].Hi {
			return res, malformed("runs [%d,%d] and [%d,%d] overlap or are out of order",
				a.Runs[i-1].Lo, a.Runs[i-1].Hi, run.Lo, run.Hi)
		}
	}
	for i := range a.Negatives {
		g := &a.Negatives[i]
		if g.Partition == nil || g.Partition.Filter == nil || len(g.Keys) == 0 {
			return res, malformed("partition %d of %d listed without a filter or without keys", i+1, len(a.Negatives))
		}
		if i > 0 && g.Partition.Lo < a.Negatives[i-1].Partition.Hi {
			return res, malformed("partition [%d,%d) listed twice or out of order", g.Partition.Lo, g.Partition.Hi)
		}
	}
	var (
		ri, rec, held int // current run, its next unread record, the keys it has resolved
		gi, gk        int // next negative: key gk of partition gi
	)
	// retire leaves run ri behind: everything in it must have been a key's.
	retire := func() error {
		run := a.Runs[ri]
		if rec < len(run.Records) {
			return malformed("run [%d,%d] holds a record whose key %d is no outer key", run.Lo, run.Hi, run.Records[rec].Key)
		}
		if held == 0 {
			return malformed("run [%d,%d] contains no outer key", run.Lo, run.Hi)
		}
		ri, rec, held = ri+1, 0, 0
		return nil
	}
	for i, v := range keys {
		if i > 0 && v <= keys[i-1] {
			return res, malformed("outer keys %d, %d not ascending", keys[i-1], v)
		}
		for ri < len(a.Runs) && a.Runs[ri].Hi < v {
			if err := retire(); err != nil {
				return res, err
			}
		}
		inRun := ri < len(a.Runs) && a.Runs[ri].Lo <= v
		negative := gi < len(a.Negatives) && a.Negatives[gi].Keys[gk] == v
		switch {
		case inRun && negative:
			return res, malformed("key %d resolved twice, by the run [%d,%d] and by a Bloom negative", v, a.Runs[ri].Lo, a.Runs[ri].Hi)
		case inRun:
			recs := a.Runs[ri].Records
			if rec < len(recs) && recs[rec].Key < v {
				return res, retire() // fails, naming the record
			}
			from := rec
			for rec < len(recs) && recs[rec].Key == v {
				rec++
			}
			held++
			if rec > from {
				res.Matched++
			} else {
				res.Absent++
			}
			if visit != nil {
				visit(v, recs[from:rec])
			}
		case negative:
			p := a.Negatives[gi].Partition
			if v < p.Lo || v >= p.Hi {
				return res, malformed("partition [%d,%d) does not cover %d", p.Lo, p.Hi, v)
			}
			if p.Filter.MayContainUint64(uint64(v)) {
				return res, malformed("filter probe positive for %d without a run over it", v)
			}
			if gk++; gk == len(a.Negatives[gi].Keys) {
				gi, gk = gi+1, 0
			}
			res.Negatives++
			if visit != nil {
				visit(v, nil)
			}
		default:
			return res, malformed("outer key %d has no join proof", v)
		}
	}
	for ri < len(a.Runs) {
		if err := retire(); err != nil {
			return res, err
		}
	}
	if gi < len(a.Negatives) {
		return res, malformed("Bloom negative for %d, which is no outer key or out of order", a.Negatives[gi].Keys[gk])
	}
	return res, nil
}

// Verify checks the S-side join proof against the R.A values it must
// resolve: the section's shape and coverage (Resolve), every run authentic
// and complete, every listed partition certified.
func Verify(scheme sigagg.Scheme, pub sigagg.PublicKey, raValues []int64, ans *Answer) (Resolution, error) {
	if ans == nil {
		return Resolution{}, malformed("nil join answer")
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
		job := PartitionJob(g.Partition, g.PartSig, ans.FilterTS)
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
