// Package bas implements a Bilinear-Aggregate-Signature-style (BLS)
// aggregate signature scheme over NIST P-256.
//
// Real BAS (Boneh–Gentry–Lynn–Shacham) needs a pairing-friendly curve;
// the Go standard library provides none. This package is therefore a
// *documented simulation* (see DESIGN.md):
//
//   - Signing is real elliptic-curve cryptography: sig = x·H(m), one
//     scalar multiplication over P-256, with H a try-and-increment
//     hash-to-curve map. Signatures are 33-byte compressed points (the
//     paper's 160-bit/20-byte figure is for a 160-bit curve; P-256 is
//     the closest stdlib curve).
//   - Aggregation is real: elliptic point addition, associative and
//     commutative, with Remove implemented as addition of the negated
//     point — exactly the algebra BAS provides.
//   - Verification of real BAS computes pairings: e(sig, g2) ==
//     Π e(H(mi), pk). Lacking a pairing, we check the equivalent
//     discrete-log relation sig == x·ΣH(mi) using a verification
//     trapdoor (the secret scalar) carried inside the public key, and we
//     burn a calibrated amount of EC work per emulated pairing so the
//     cost *shape* of the paper's Table 3 (BAS verification much slower
//     than condensed-RSA verification; ~n pairings for an n-signature
//     aggregate) is preserved. This is sound in the honest-but-curious
//     reproduction setting but NOT secure against an adversary who
//     inspects the public key. Set the pairing cost to 0 via New(0) to
//     run verification at raw speed in functional tests.
package bas

import (
	"crypto/elliptic"
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	mrand "math/rand/v2"
	"sync"
	"sync/atomic"

	"authdb/internal/sigagg"
)

// DefaultPairingCost is the default number of P-256 scalar
// multiplications burned per emulated pairing. Twelve multiplications of
// ~25µs each approximate the ~0.3ms/pairing amortized cost the paper
// reports for its quad-core Xeon (331ms for a 1000-signature aggregate).
const DefaultPairingCost = 12

// Scheme is the simulated-BAS scheme.
type Scheme struct {
	curve       elliptic.Curve
	pairingCost int

	// Verification fast path state (see fastpath.go). portable routes
	// verification through the crypto/elliptic oracle (portable.go)
	// instead.
	portable bool
	cache    *pointCache
	tables   *tableCache
	scratch  sync.Pool

	fastVerifies     atomic.Uint64
	portableVerifies atomic.Uint64
	pairings         atomic.Uint64 // pairing evaluations charged pairingCost
}

// Option configures a Scheme.
type Option func(*options)

type options struct {
	portable     bool
	cacheEntries int
}

// defaultCacheEntries bounds the point cache at 7.3 MB when full
// (65,536 slots of 104 bytes — a 64-byte point and its 33-byte key — are
// 6.8 MB, the uint32 index 0.5 MB, and there is nothing else): enough for
// the full digest working set of the committed benchmarks with room to
// spare, small enough to be irrelevant next to the catalog itself.
const defaultCacheEntries = 1 << 16

// New returns a BAS scheme whose emulated pairing burns pairingCost
// scalar multiplications. Use 0 for raw-speed functional testing.
func New(pairingCost int, opts ...Option) *Scheme {
	o := options{cacheEntries: defaultCacheEntries}
	for _, fn := range opts {
		fn(&o)
	}
	s := &Scheme{
		curve:       elliptic.P256(),
		pairingCost: pairingCost,
		portable:    o.portable,
		cache:       newPointCache(o.cacheEntries, mrand.Uint64()),
		tables:      newTableCache(),
	}
	s.scratch.New = func() any { return new(verifyScratch) }
	return s
}

// Name implements sigagg.Scheme.
func (s *Scheme) Name() string { return "bas" }

// SignatureSize implements sigagg.Scheme: a compressed P-256 point.
func (s *Scheme) SignatureSize() int { return pointLen }

// PrivateKey is a BAS signing key: a scalar x in [1, n).
type PrivateKey struct {
	x *big.Int
}

// SchemeName implements sigagg.PrivateKey.
func (*PrivateKey) SchemeName() string { return "bas" }

// PublicKey is a BAS verification key. X = x·G is the genuine public
// point; Trapdoor carries the secret scalar so the simulated pairing
// check can run (see the package comment).
type PublicKey struct {
	X, Y     *big.Int
	Trapdoor *big.Int
}

// SchemeName implements sigagg.PublicKey.
func (*PublicKey) SchemeName() string { return "bas" }

// KeyGen implements sigagg.Scheme.
func (s *Scheme) KeyGen(rnd io.Reader) (sigagg.PrivateKey, sigagg.PublicKey, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	n := s.curve.Params().N
	for {
		buf := make([]byte, (n.BitLen()+7)/8)
		if _, err := io.ReadFull(rnd, buf); err != nil {
			return nil, nil, fmt.Errorf("bas: keygen: %w", err)
		}
		x := new(big.Int).SetBytes(buf)
		x.Mod(x, n)
		if x.Sign() == 0 {
			continue
		}
		px, py := s.curve.ScalarBaseMult(x.Bytes())
		return &PrivateKey{x: x}, &PublicKey{X: px, Y: py, Trapdoor: new(big.Int).Set(x)}, nil
	}
}

func (s *Scheme) priv(k sigagg.PrivateKey) (*PrivateKey, error) {
	p, ok := k.(*PrivateKey)
	if !ok {
		return nil, fmt.Errorf("bas: wrong private key type %T", k)
	}
	return p, nil
}

func (s *Scheme) pub(k sigagg.PublicKey) (*PublicKey, error) {
	p, ok := k.(*PublicKey)
	if !ok {
		return nil, fmt.Errorf("bas: wrong public key type %T", k)
	}
	return p, nil
}

// isIdentity reports whether sig is the encoding of the point at
// infinity: all zeros, SignatureSize long (MarshalCompressed cannot
// represent infinity).
func (s *Scheme) isIdentity(sig sigagg.Signature) bool {
	for _, b := range sig {
		if b != 0 {
			return false
		}
	}
	return true
}

// checkFrame checks a signature's length and reports whether it is the
// identity.
func (s *Scheme) checkFrame(sig sigagg.Signature) (identity bool, err error) {
	if len(sig) != pointLen {
		return false, fmt.Errorf("%w: length %d, want %d",
			sigagg.ErrBadSignature, len(sig), pointLen)
	}
	return s.isIdentity(sig), nil
}

// decode decodes a signature into a and reports whether it was the
// identity, in which case a is left alone.
func (s *Scheme) decode(a *affPoint, sig sigagg.Signature) (identity bool, err error) {
	if identity, err = s.checkFrame(sig); err != nil || identity {
		return identity, err
	}
	if !decompress(a, sig) {
		return false, fmt.Errorf("%w: not a curve point", sigagg.ErrBadSignature)
	}
	return false, nil
}

// encodeInto writes j's encoding into dst when it has capacity,
// allocating otherwise.
func encodeInto(dst sigagg.Signature, j *jacPoint) sigagg.Signature {
	if cap(dst) < pointLen {
		dst = make(sigagg.Signature, pointLen)
	}
	dst = dst[:pointLen]
	var a affPoint
	if j.toAffine(&a) {
		compress(dst, &a)
	} else {
		clear(dst) // the identity
	}
	return dst
}

// Sign implements sigagg.Scheme: sig = x·H(digest).
//
// Signing deliberately bypasses the digest→point cache: the cache
// exists for the verifier's benefit, and a signer warming it would let
// an in-process benchmark's "cold verification" numbers silently ride
// on signing-time work.
func (s *Scheme) Sign(priv sigagg.PrivateKey, digest []byte) (sigagg.Signature, error) {
	sigs, err := s.SignBatch(priv, [][]byte{digest})
	if err != nil {
		return nil, err
	}
	return sigs[0], nil
}

// SignBatch implements sigagg.Scheme: the signing scalar is
// serialized once and every signature is encoded into one shared
// backing array. The per-message curve work is hash-to-curve on the
// limb kernel plus one scalar multiplication; the multiplication takes
// the secret scalar, so it stays on crypto/elliptic's constant-time
// nistec backend — the variable-time kernel never sees a secret.
func (s *Scheme) SignBatch(priv sigagg.PrivateKey, digests [][]byte) ([]sigagg.Signature, error) {
	p, err := s.priv(priv)
	if err != nil {
		return nil, err
	}
	xb := p.x.Bytes()
	out := make([]sigagg.Signature, len(digests))
	backing := make([]byte, len(digests)*pointLen)
	var (
		msg    []byte
		h      affPoint
		hb     [64]byte
		hx, hy big.Int
	)
	for i, d := range digests {
		hashToCurve(&h, &msg, d)
		feBytes(hb[:32], &h.x)
		feBytes(hb[32:], &h.y)
		sx, sy := s.curve.ScalarMult(hx.SetBytes(hb[:32]), hy.SetBytes(hb[32:]), xb)
		sig := backing[i*pointLen : (i+1)*pointLen : (i+1)*pointLen]
		sig[0] = byte(2 + sy.Bit(0)) // compressed-point tag: 02 even y, 03 odd y
		sx.FillBytes(sig[1:])
		out[i] = sig
	}
	return out, nil
}

// Verify implements sigagg.Scheme.
func (s *Scheme) Verify(pub sigagg.PublicKey, digest []byte, sig sigagg.Signature) error {
	return s.AggregateVerify(pub, [][]byte{digest}, sig)
}

// AggregateInto implements sigagg.Scheme: the sum of signature
// points. Each input is decoded
// once, summed in Jacobian coordinates (one inversion for the whole sum
// instead of an affine round-trip per addition), and the result is
// encoded once into dst (reused when it has capacity). Inputs are
// decoded without the point cache: proof construction sweeps huge
// leaf-signature sets that would thrash a cache sized for the verifier's
// answer working set.
func (s *Scheme) AggregateInto(dst sigagg.Signature, sigs []sigagg.Signature) (sigagg.Signature, error) {
	var (
		sum jacPoint
		pt  affPoint
	)
	for _, sig := range sigs {
		identity, err := s.decode(&pt, sig)
		if err != nil {
			return nil, err
		}
		if !identity {
			sum.mixedAdd(&pt)
		}
	}
	return encodeInto(dst, &sum), nil
}

// Remove cancels sig out of agg: agg + (−sig). It is the capability
// repro/sigcache's eager maintenance needs (sigcache.Remover); like every
// aggregation entry point it stays clear of the point cache, which is the
// verifier's (authlint nocachesign).
func (s *Scheme) Remove(agg, sig sigagg.Signature) (sigagg.Signature, error) {
	var (
		sum jacPoint
		pt  affPoint
	)
	identity, err := s.decode(&pt, agg)
	if err != nil {
		return nil, err
	}
	if !identity {
		sum.setAffine(&pt)
	}
	if identity, err = s.decode(&pt, sig); err != nil {
		return nil, err
	}
	if !identity {
		feNeg(&pt.y, &pt.y)
		sum.mixedAdd(&pt)
	}
	return encodeInto(nil, &sum), nil
}

// emulatePairing burns the calibrated EC work of one pairing evaluation.
func (s *Scheme) emulatePairing() {
	if s.pairingCost <= 0 {
		return
	}
	s.pairings.Add(1)
	k := []byte{0x5a, 0xa5, 0x3c, 0xc3, 0x69, 0x96, 0x0f, 0xf0,
		0x5a, 0xa5, 0x3c, 0xc3, 0x69, 0x96, 0x0f, 0xf0,
		0x5a, 0xa5, 0x3c, 0xc3, 0x69, 0x96, 0x0f, 0xf0,
		0x5a, 0xa5, 0x3c, 0xc3, 0x69, 0x96, 0x0f, 0xf0}
	gx, gy := s.curve.Params().Gx, s.curve.Params().Gy
	x, y := gx, gy
	for i := 0; i < s.pairingCost; i++ {
		x, y = s.curve.ScalarMult(x, y, k)
	}
	_ = y
}

// AggregateVerify implements sigagg.Scheme. Real BAS evaluates t+1
// pairings for t digests; we charge the emulated pairing cost t+1 times
// and check the trapdoor relation agg == x·Σ H(digest_i).
func (s *Scheme) AggregateVerify(pub sigagg.PublicKey, digests [][]byte, agg sigagg.Signature) error {
	_, ok, err := s.verifyJobs(pub, []sigagg.VerifyJob{{Digests: digests, Agg: agg}})
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: BAS mismatch over %d digests",
			sigagg.ErrVerify, len(digests))
	}
	return nil
}

// VerifyJobs implements sigagg.Scheme. The trapdoor relation is
// linear, so a whole batch folds into one equation:
// Σ agg_i == x · Σ_i Σ_j H(digest_ij) — every aggregate and every
// hashed digest is point-added into a running sum and a single scalar
// multiplication closes the batch, where job-by-job verification would
// pay one per job. Real BAS batches the same way with one
// pairing-product equation per side; the emulated pairing cost is still
// charged once per digest plus once per job so Table 3's cost shape is
// preserved. A single tampered member anywhere makes the sums differ
// and fails the whole batch.
func (s *Scheme) VerifyJobs(pub sigagg.PublicKey, jobs []sigagg.VerifyJob) error {
	total, ok, err := s.verifyJobs(pub, jobs)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: BAS batch mismatch over %d jobs (%d digests)",
			sigagg.ErrVerify, len(jobs), total)
	}
	return nil
}

// verifyJobs checks the batch relation on the limb kernel
// (fastpath.go), or on crypto/elliptic (portable.go) when the scheme
// was built withPortableVerify. It returns the total digest count and
// whether the relation held.
func (s *Scheme) verifyJobs(pub sigagg.PublicKey, jobs []sigagg.VerifyJob) (total int, ok bool, err error) {
	p, err := s.pub(pub)
	if err != nil {
		return 0, false, err
	}
	if s.portable {
		s.portableVerifies.Add(1)
		return s.verifyJobsPortable(p, jobs)
	}
	s.fastVerifies.Add(1)
	return s.verifyJobsFast(p, jobs)
}

// VerifyStats implements sigagg.VerifyStatsProvider: the fast path's
// cache and precomputation counters, process-wide for this instance.
func (s *Scheme) VerifyStats() sigagg.VerifyStats {
	return sigagg.VerifyStats{
		H2CCacheHits:     s.cache.h2cHits.Load(),
		H2CCacheMisses:   s.cache.h2cMisses.Load(),
		AggCacheMisses:   s.cache.aggDecodes.Load(),
		CacheEvictions:   s.cache.evictions.Load(),
		TableBuilds:      s.tables.buildCount(),
		FastVerifies:     s.fastVerifies.Load(),
		PortableVerifies: s.portableVerifies.Load(),
		EmulatedPairings: s.pairings.Load(),
	}
}
