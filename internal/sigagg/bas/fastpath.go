package bas

import (
	"bytes"
	"crypto/elliptic"
	"fmt"
	"io"
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
// ScalarMult takes and returns big.Ints, and SelfTest and the tests
// compare against math/big and crypto/elliptic.

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

// SelfTest holds the kernel to independent implementations and reports
// the first disagreement: field arithmetic against math/big, Jacobian
// add/double/mixed-add and point (de)compression against
// crypto/elliptic, hash-to-curve against its math/big original, and
// fast-path verification against the portable path on valid and
// tampered inputs. It is cheap enough to run at startup or in CI
// (-check) as the equivalence oracle.
func (s *Scheme) SelfTest(rnd io.Reader, iters int) error {
	if iters <= 0 {
		iters = 8
	}
	params := s.curve.Params()
	randBelow := func(m *big.Int) (*big.Int, error) {
		buf := make([]byte, 40) // 64 spare bits: the bias is negligible
		if _, err := io.ReadFull(rnd, buf); err != nil {
			return nil, fmt.Errorf("bas: selftest entropy: %w", err)
		}
		k := new(big.Int).SetBytes(buf)
		return k.Mod(k, m), nil
	}
	randPoint := func() (*big.Int, *big.Int, error) {
		for {
			k, err := randBelow(params.N)
			if err != nil {
				return nil, nil, err
			}
			if k.Sign() == 0 {
				continue
			}
			x, y := s.curve.ScalarBaseMult(k.Bytes())
			return x, y, nil
		}
	}

	// 1. Field arithmetic vs math/big, on random operands and the edges.
	operands := []*big.Int{
		big.NewInt(0), big.NewInt(1),
		new(big.Int).Sub(params.P, big.NewInt(1)),
		new(big.Int).Sub(params.P, big.NewInt(2)),
	}
	for i := 0; i < 2*iters; i++ {
		v, err := randBelow(params.P)
		if err != nil {
			return err
		}
		operands = append(operands, v)
	}
	want := new(big.Int)
	for _, a := range operands {
		for _, b := range operands {
			if err := fieldAgrees(params.P, a, b, want); err != nil {
				return err
			}
		}
	}

	// 2. Jacobian arithmetic vs crypto/elliptic.
	for i := 0; i < iters; i++ {
		ax, ay, err := randPoint()
		if err != nil {
			return err
		}
		bx, by, err := randPoint()
		if err != nil {
			return err
		}
		a, b := affFromBig(ax, ay), affFromBig(bx, by)
		var j, o jacPoint
		j.setAffine(a)
		j.mixedAdd(b)
		sx, sy := s.curve.Add(ax, ay, bx, by)
		if !j.equalsBig(sx, sy) {
			return fmt.Errorf("bas: selftest: jacobian mixed add diverges from curve.Add")
		}
		dx, dy := s.curve.Double(ax, ay)
		o.setAffine(a)
		o.double()
		if !o.equalsBig(dx, dy) {
			return fmt.Errorf("bas: selftest: jacobian double diverges from curve.Double")
		}
		// (a+b) + 2a with both operands off Z = 1.
		j.addJac(&o)
		tx, ty := s.curve.Add(sx, sy, dx, dy)
		if !j.equalsBig(tx, ty) {
			return fmt.Errorf("bas: selftest: jacobian full add diverges from curve.Add")
		}
		var back affPoint
		if !j.toAffine(&back) || feToBig(&back.x).Cmp(tx) != 0 || feToBig(&back.y).Cmp(ty) != 0 {
			return fmt.Errorf("bas: selftest: toAffine diverges from curve.Add")
		}
		// P + P via mixed add must match doubling.
		j.setAffine(a)
		j.mixedAdd(a)
		if !j.equalsBig(dx, dy) {
			return fmt.Errorf("bas: selftest: jacobian P+P diverges from curve.Double")
		}
		// P + (-P) must be infinity.
		neg := *a
		feNeg(&neg.y, &neg.y)
		j.setAffine(a)
		j.mixedAdd(&neg)
		if !j.isInfinity() {
			return fmt.Errorf("bas: selftest: jacobian P+(-P) not infinity")
		}

		// 3. Point encoding and hash-to-curve vs their oracles.
		enc := elliptic.MarshalCompressed(s.curve, ax, ay)
		var dec affPoint
		if !decompress(&dec, enc) || dec != *a {
			return fmt.Errorf("bas: selftest: decompress diverges from elliptic.UnmarshalCompressed")
		}
		var re [pointLen]byte
		compress(re[:], &dec)
		if !bytes.Equal(re[:], enc) {
			return fmt.Errorf("bas: selftest: compress diverges from elliptic.MarshalCompressed")
		}
		var h affPoint
		var msg []byte
		hashToCurve(&h, &msg, enc)
		if hx, hy := s.hashToCurvePortable(enc); h != *affFromBig(hx, hy) {
			return fmt.Errorf("bas: selftest: hash-to-curve diverges from its math/big original")
		}
	}

	// 4. Fast vs portable verification, valid and tampered.
	portable := New(0, withPortableVerify())
	priv, pubk, err := s.KeyGen(rnd)
	if err != nil {
		return err
	}
	digests := make([][]byte, 6)
	for i := range digests {
		digests[i] = []byte(fmt.Sprintf("selftest-digest-%d-aaaaaaaaaaaaaa", i))
	}
	sigs, err := s.SignBatch(priv, digests)
	if err != nil {
		return err
	}
	for i := range sigs {
		one, err := s.Sign(priv, digests[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(sigs[i], one) {
			return fmt.Errorf("bas: selftest: SignBatch and Sign disagree on digest %d", i)
		}
	}
	agg, err := s.Aggregate(sigs)
	if err != nil {
		return err
	}
	jobs := []sigagg.VerifyJob{
		{Digests: digests[:3], Agg: mustAgg(s, sigs[:3])},
		{Digests: digests[3:], Agg: mustAgg(s, sigs[3:])},
		{Digests: digests, Agg: agg}, // duplicates digests across jobs
	}
	if err := s.VerifyJobs(pubk, jobs); err != nil {
		return fmt.Errorf("bas: selftest: fast path rejected valid batch: %w", err)
	}
	if err := portable.VerifyJobs(pubk, jobs); err != nil {
		return fmt.Errorf("bas: selftest: portable path rejected valid batch: %w", err)
	}
	// Tamper: flip a bit in one aggregate; both paths must reject.
	bad := agg.Clone()
	bad[5] ^= 0x40
	badJobs := []sigagg.VerifyJob{{Digests: digests, Agg: bad}}
	fastErr := s.VerifyJobs(pubk, badJobs)
	portErr := portable.VerifyJobs(pubk, badJobs)
	if (fastErr == nil) != (portErr == nil) {
		return fmt.Errorf("bas: selftest: fast/portable disagree on tampered aggregate (fast=%v portable=%v)", fastErr, portErr)
	}
	if fastErr == nil {
		return fmt.Errorf("bas: selftest: tampered aggregate accepted")
	}
	// Tamper: drop a digest.
	shortJobs := []sigagg.VerifyJob{{Digests: digests[:5], Agg: agg}}
	if s.VerifyJobs(pubk, shortJobs) == nil || portable.VerifyJobs(pubk, shortJobs) == nil {
		return fmt.Errorf("bas: selftest: aggregate over missing digest accepted")
	}
	return nil
}

// fieldAgrees checks every field operation on (a, b), both below p,
// against math/big. want is scratch.
func fieldAgrees(p, a, b, want *big.Int) error {
	x, y := feFromBig(a), feFromBig(b)
	var z fe
	check := func(op string) error {
		if got := feToBig(&z); got.Cmp(want) != 0 {
			return fmt.Errorf("bas: selftest: field %s(%x, %x) = %x, math/big says %x", op, a, b, got, want)
		}
		return nil
	}
	feMul(&z, &x, &y)
	want.Mul(a, b).Mod(want, p)
	if err := check("mul"); err != nil {
		return err
	}
	feSqr(&z, &x)
	want.Mul(a, a).Mod(want, p)
	if err := check("sqr"); err != nil {
		return err
	}
	feAdd(&z, &x, &y)
	want.Add(a, b).Mod(want, p)
	if err := check("add"); err != nil {
		return err
	}
	feSub(&z, &x, &y)
	want.Sub(a, b).Mod(want, p)
	if err := check("sub"); err != nil {
		return err
	}
	feNeg(&z, &x)
	want.Neg(a).Mod(want, p)
	if err := check("neg"); err != nil {
		return err
	}
	feInv(&z, &x)
	if want.ModInverse(a, p) == nil {
		want.SetInt64(0) // a = 0
	}
	if err := check("inv"); err != nil {
		return err
	}
	isSquare := feSqrt(&z, &x)
	if root := want.ModSqrt(a, p); (root != nil) != isSquare {
		return fmt.Errorf("bas: selftest: field sqrt(%x) square=%v, math/big disagrees", a, isSquare)
	} else if root != nil {
		return check("sqrt")
	}
	return nil
}

func mustAgg(s *Scheme, sigs []sigagg.Signature) sigagg.Signature {
	a, err := s.Aggregate(sigs)
	if err != nil {
		panic(err)
	}
	return a
}
