package bas

import (
	"fmt"
	"math/big"
	"math/bits"

	"authdb/internal/sigagg"
)

// The verification fast path. The trapdoor relation is linear —
// Σ agg_i == x · Σ_ij H(d_ij) — so a batch reduces to summing points
// and one closing scalar multiplication. The sums run in Jacobian
// coordinates on the limb kernel (field.go, point.go) with cached H(d)
// points (h2c.go: one flat table, probed a block at a time under one read
// lock), and digests repeated inside a batch are folded by multiplicity
// with a Pippenger-style bucket accumulation instead of re-added. With
// the table warm the whole summation is one decompression per aggregate,
// table probes and stack arithmetic: it allocates nothing.
// The emulated pairing cost is still charged once per digest plus once
// per job, exactly as the portable path does, so the simulated Table 3
// cost shape is unchanged when pairingCost > 0.

// verifyScratch is the per-call working state, pooled on the Scheme.
type verifyScratch struct {
	msg     []byte       // hash-to-curve input buffer
	agg     jacPoint     // Σ aggregates
	hs      jacPoint     // Σ hashed digests, multiplicity-weighted
	ents    []probeEntry // the call's cache lookups, in job order
	dedupe  []int32      // open-addressed by probeEntry.hash: index into ents + 1
	miss    []int32      // the entries the cache did not hold
	missPts []affPoint   // and their points, computed outside the lock
	buckets []jacPoint   // Σ H(d) by digest multiplicity
	sink    uint64       // keeps locateBlock's loads alive
}

// probeEntry is one cache lookup of a batch: a unique digest and how many
// times the batch references it. The bytes are borrowed from the caller's
// jobs and never retained past the call.
type probeEntry struct {
	key   cacheKey
	hash  uint64 // pointCache.hash(&key)
	d     []byte
	count int32
	slot  int32 // candidate slot from pointTable.locate, -1 for none
}

// probeBlock is how many entries sumJobs locates before it starts adding
// them: enough independent loads in flight to cover the latency of a slot
// that has left the cache, few enough that the block's slots (three lines
// each) are still in L1 when the additions reach them.
const probeBlock = 32

// verifyJobsFast checks Σ agg_i == x·Σ_ij H(d_ij) for the whole batch.
// It returns the total digest count and whether the relation held;
// callers attribute the failure (the relation has set semantics — see
// sigagg.Scheme.VerifyJobs — so per-job blame needs a re-verify).
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
	c := s.cache
	for _, j := range jobs {
		total += len(j.Digests)
	}
	sc.agg.setInfinity()
	sc.ents, sc.miss, sc.missPts = sc.ents[:0], sc.miss[:0], sc.missPts[:0]
	logLen := max(4, bits.Len(uint(2*total)))
	if len(sc.dedupe) < 1<<logLen {
		sc.dedupe = make([]int32, 1<<logLen)
	}
	dedupe := sc.dedupe[:1<<logLen]
	clear(dedupe)

	// Pass 1, no lock: Σ agg_i (one decompression each), then key and hash
	// every digest lookup once, count multiplicities, charge the emulated
	// pairings.
	var pt affPoint
	aggs, maxCount := 0, int32(0)
	for _, j := range jobs {
		identity, err := s.decode(&pt, j.Agg)
		if err != nil {
			return 0, err
		}
		if !identity {
			sc.agg.mixedAdd(&pt)
			aggs++
		}
	digests:
		for _, d := range j.Digests {
			s.emulatePairing()
			k := digestKey(d)
			h := c.hash(&k)
			i := h >> (64 - logLen)
			for ; dedupe[i] != 0; i = (i + 1) & (1<<logLen - 1) {
				if e := &sc.ents[dedupe[i]-1]; e.hash == h && e.key == k {
					e.count++
					maxCount = max(maxCount, e.count)
					continue digests
				}
			}
			sc.ents = append(sc.ents, probeEntry{key: k, hash: h, d: d, count: 1})
			dedupe[i] = int32(len(sc.ents))
			maxCount = max(maxCount, 1)
		}
		s.emulatePairing() // the e(agg_i, g2) side of job i
	}
	for len(sc.buckets) < int(maxCount) {
		sc.buckets = append(sc.buckets, jacPoint{})
	}
	clear(sc.buckets[:maxCount])

	// Pass 2, one read lock: Σ count·H(d) over the entries the cache
	// holds, a block at a time — locate the block's slots, then add
	// each point straight from its slot. A unique digest goes into the
	// bucket for its multiplicity; the buckets then combine with the
	// standard suffix-sum, so a digest shared by c jobs costs one add, not
	// c.
	c.mu.RLock()
	for lo := 0; lo < len(sc.ents); lo += probeBlock {
		block := sc.ents[lo:min(lo+probeBlock, len(sc.ents))]
		sc.sink += c.locateBlock(block)
		for i := range block {
			if hit := c.confirm(&block[i]); hit != nil {
				sc.buckets[block[i].count-1].mixedAdd(hit)
			} else {
				sc.miss = append(sc.miss, int32(lo+i))
			}
		}
	}
	c.mu.RUnlock()

	// The misses, outside the lock: hash-to-curve, add, and remember the
	// point for the one write lock that stores them all.
	for _, i := range sc.miss {
		e := &sc.ents[i]
		hashToCurve(&pt, &sc.msg, e.d)
		sc.buckets[e.count-1].mixedAdd(&pt)
		sc.missPts = append(sc.missPts, pt)
	}
	if len(sc.miss) > 0 {
		c.mu.Lock()
		for n, i := range sc.miss {
			c.put(sc.ents[i].hash, &sc.ents[i].key, &sc.missPts[n])
		}
		c.mu.Unlock()
	}
	c.aggDecodes.Add(uint64(aggs))
	c.h2cHits.Add(uint64(len(sc.ents) - len(sc.miss)))
	c.h2cMisses.Add(uint64(len(sc.miss)))

	sc.hs.setInfinity()
	var run jacPoint // suffix sum of the buckets
	for c := maxCount; c >= 1; c-- {
		run.addJac(&sc.buckets[c-1])
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
