package bas

import (
	"fmt"
	"math/big"

	"authdb/internal/sigagg"
)

// The verification fast path. The trapdoor relation is linear —
// Σ agg_i == x · Σ_ij H(d_ij) — so a batch reduces to summing points
// and one closing scalar multiplication. The sums run in Jacobian
// coordinates on the limb kernel (field.go, point.go) with cached H(d)
// points and cached aggregate decodes, and digests repeated inside a
// batch are folded by multiplicity with a Pippenger-style bucket
// accumulation instead of re-added. With both caches warm the whole
// summation is map lookups and stack arithmetic: it allocates nothing.
// The emulated pairing cost is still charged once per digest plus once
// per job, exactly as the portable path does, so the simulated Table 3
// cost shape is unchanged when pairingCost > 0.

// verifyScratch is the per-call working state, pooled on the Scheme.
type verifyScratch struct {
	msg     []byte   // hash-to-curve input buffer
	agg     jacPoint // Σ aggregates
	hs      jacPoint // Σ hashed digests, multiplicity-weighted
	idx     map[cacheKey]int32
	ents    []digestEntry
	buckets []jacPoint
}

// digestEntry is one unique digest in a batch and how many times the
// batch references it. The digest bytes are borrowed from the caller's
// jobs and never retained past the call.
type digestEntry struct {
	key   cacheKey
	d     []byte
	count int32
}

// decodeCached is decode through the aggregate cache: a hit skips the
// square root. Only valid curve points are ever cached.
func (s *Scheme) decodeCached(a *affPoint, sig sigagg.Signature) (identity bool, err error) {
	if len(sig) != pointLen || s.isIdentity(sig) {
		return s.decode(a, sig) // an error or the identity: neither is cached
	}
	k := aggKey(sig)
	if s.cache.get(&k, a) {
		s.cache.aggHits.Add(1)
		return false, nil
	}
	s.cache.aggMisses.Add(1)
	if _, err := s.decode(a, sig); err != nil {
		return false, err
	}
	s.cache.put(&k, a)
	return false, nil
}

// verifyJobsFast checks Σ agg_i == x·Σ_ij H(d_ij) for the whole batch.
// It returns the total digest count and whether the relation held;
// callers attribute the failure (the relation has set semantics — see
// BatchVerifier — so per-job blame needs a re-verify).
func (s *Scheme) verifyJobsFast(p *PublicKey, jobs []sigagg.VerifyJob) (total int, ok bool, err error) {
	scalar, wellFormed := s.tables.scalarFor(p)
	if !wellFormed {
		return 0, false, fmt.Errorf("%w: malformed BAS public key", sigagg.ErrVerify)
	}
	sc := s.scratch.Get().(*verifyScratch)
	defer s.scratch.Put(sc)
	if total, err = s.sumJobs(sc, jobs); err != nil {
		return 0, false, err
	}
	// Closing multiplication and comparison. One inversion normalizes
	// the digest sum for the (assembly-backed) scalar multiplication;
	// the aggregate sum is compared in place, saving the second
	// inversion.
	var h affPoint
	if !sc.hs.toAffine(&h) {
		return total, sc.agg.isInfinity(), nil
	}
	ex, ey := s.curve.ScalarMult(feToBig(&h.x), feToBig(&h.y), scalar[:])
	return total, sc.agg.equalsBig(ex, ey), nil
}

// sumJobs leaves Σ agg_i in sc.agg and Σ_ij H(d_ij) in sc.hs and
// returns the digest count.
func (s *Scheme) sumJobs(sc *verifyScratch, jobs []sigagg.VerifyJob) (total int, err error) {
	sc.agg.setInfinity()
	clear(sc.idx)
	sc.ents = sc.ents[:0]

	// Pass 1: fold the aggregates, count digest multiplicities, charge
	// the emulated pairings.
	var pt affPoint
	for _, j := range jobs {
		identity, err := s.decodeCached(&pt, j.Agg)
		if err != nil {
			return 0, err
		}
		if !identity {
			sc.agg.mixedAdd(&pt)
		}
		for _, d := range j.Digests {
			k := digestKey(d)
			if i, dup := sc.idx[k]; dup {
				sc.ents[i].count++
			} else {
				sc.idx[k] = int32(len(sc.ents))
				sc.ents = append(sc.ents, digestEntry{key: k, d: d, count: 1})
			}
			s.emulatePairing()
			total++
		}
		s.emulatePairing() // the e(agg_i, g2) side of job i
	}

	// Pass 2: Σ count·H(d) by multiplicity buckets. Each unique digest
	// is hashed-to-curve once (usually a cache hit) and mixed-added into
	// the bucket for its multiplicity; the buckets then combine with the
	// standard suffix-sum so a digest shared by c jobs costs one add,
	// not c.
	maxCount := int32(0)
	for i := range sc.ents {
		maxCount = max(maxCount, sc.ents[i].count)
	}
	for len(sc.buckets) < int(maxCount) {
		sc.buckets = append(sc.buckets, jacPoint{})
	}
	buckets := sc.buckets[:maxCount]
	clear(buckets)
	for i := range sc.ents {
		e := &sc.ents[i]
		s.hashToCurveCached(&pt, &sc.msg, &e.key, e.d)
		buckets[e.count-1].mixedAdd(&pt)
	}
	sc.hs.setInfinity()
	var run jacPoint // suffix sum of the buckets
	for c := maxCount; c >= 1; c-- {
		run.addJac(&buckets[c-1])
		sc.hs.addJac(&run)
	}
	return total, nil
}

// Bridges between the kernel's types and math/big: the closing
// ScalarMult takes and returns big.Ints, and the tests compare against
// math/big and crypto/elliptic.

func feFromBig(v *big.Int) (x fe) {
	var b [32]byte
	feSetBytes(&x, v.FillBytes(b[:]))
	return x
}

func feToBig(x *fe) *big.Int {
	var b [32]byte
	feBytes(b[:], x)
	return new(big.Int).SetBytes(b[:])
}

func affFromBig(x, y *big.Int) *affPoint {
	return &affPoint{x: feFromBig(x), y: feFromBig(y)}
}

// equalsBig reports whether j is the affine point (x, y), with
// crypto/elliptic's (0, 0) standing for infinity.
func (j *jacPoint) equalsBig(x, y *big.Int) bool {
	if isInfinityPortable(x, y) {
		return j.isInfinity()
	}
	return j.equalsAffine(affFromBig(x, y))
}
