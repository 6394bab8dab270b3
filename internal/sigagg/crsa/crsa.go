// Package crsa implements condensed RSA (Mykletun, Narasimha, Tsudik):
// an aggregate signature scheme where a signature is a full-domain-hash
// RSA signature sig = FDH(m)^d mod n, and an aggregate is the modular
// product of individual signatures. Verification of a t-signature
// aggregate costs one modular exponentiation (with the small public
// exponent e) plus t full-domain hashes and t-1 modular multiplications,
// which is why the paper reports condensed-RSA verification as orders of
// magnitude faster than BAS verification.
//
// All signatures under one aggregate must come from the same signer; this
// matches the outsourced-database model where the data aggregator is the
// single signer.
package crsa

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"

	"authdb/internal/sigagg"
)

// DefaultBits is the default RSA modulus size. The paper uses 1024-bit
// RSA as the security-equivalent of 160-bit ECC.
const DefaultBits = 1024

// Scheme is the condensed-RSA scheme.
type Scheme struct {
	bits int
}

// New returns a condensed-RSA scheme with the given modulus size in bits.
func New(bits int) *Scheme { return &Scheme{bits: bits} }

// Name implements sigagg.Scheme.
func (s *Scheme) Name() string { return "crsa" }

// SignatureSize implements sigagg.Scheme.
func (s *Scheme) SignatureSize() int { return s.bits / 8 }

// PrivateKey is a condensed-RSA signing key.
type PrivateKey struct {
	key *rsa.PrivateKey
}

// SchemeName implements sigagg.PrivateKey.
func (*PrivateKey) SchemeName() string { return "crsa" }

// PublicKey is a condensed-RSA verification key.
type PublicKey struct {
	N *big.Int
	E int
}

// SchemeName implements sigagg.PublicKey.
func (*PublicKey) SchemeName() string { return "crsa" }

// KeyGen implements sigagg.Scheme.
func (s *Scheme) KeyGen(rnd io.Reader) (sigagg.PrivateKey, sigagg.PublicKey, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	key, err := rsa.GenerateKey(rnd, s.bits)
	if err != nil {
		return nil, nil, fmt.Errorf("crsa: keygen: %w", err)
	}
	return &PrivateKey{key: key}, &PublicKey{N: key.N, E: key.E}, nil
}

// fdh expands a message digest to a full-domain element of Z_n* using
// MGF1 with SHA-256, then reduces modulo n. The reduction bias is
// negligible because we generate bits+64 output bits.
func fdh(digest []byte, n *big.Int) *big.Int {
	outLen := (n.BitLen() + 7 + 64) / 8
	out := make([]byte, 0, outLen)
	var ctr [4]byte
	for i := 0; len(out) < outLen; i++ {
		binary.BigEndian.PutUint32(ctr[:], uint32(i))
		h := sha256.New()
		h.Write([]byte("crsa-fdh"))
		h.Write(digest)
		h.Write(ctr[:])
		out = h.Sum(out)
	}
	v := new(big.Int).SetBytes(out[:outLen])
	v.Mod(v, n)
	if v.Sign() == 0 {
		v.SetInt64(1)
	}
	return v
}

func (s *Scheme) priv(k sigagg.PrivateKey) (*PrivateKey, error) {
	p, ok := k.(*PrivateKey)
	if !ok {
		return nil, fmt.Errorf("crsa: wrong private key type %T", k)
	}
	return p, nil
}

func (s *Scheme) pub(k sigagg.PublicKey) (*PublicKey, error) {
	p, ok := k.(*PublicKey)
	if !ok {
		return nil, fmt.Errorf("crsa: wrong public key type %T", k)
	}
	return p, nil
}

func (s *Scheme) sigInt(sig sigagg.Signature) (*big.Int, error) {
	if len(sig) != s.SignatureSize() {
		return nil, fmt.Errorf("%w: length %d, want %d",
			sigagg.ErrBadSignature, len(sig), s.SignatureSize())
	}
	return new(big.Int).SetBytes(sig), nil
}

func (s *Scheme) encode(v *big.Int) sigagg.Signature {
	out := make([]byte, s.SignatureSize())
	v.FillBytes(out)
	return out
}

// Sign implements sigagg.Scheme: sig = FDH(digest)^d mod n.
func (s *Scheme) Sign(priv sigagg.PrivateKey, digest []byte) (sigagg.Signature, error) {
	p, err := s.priv(priv)
	if err != nil {
		return nil, err
	}
	m := fdh(digest, p.key.N)
	sig := new(big.Int).Exp(m, p.key.D, p.key.N)
	return s.encode(sig), nil
}

// SignBatch implements sigagg.Scheme. Each signature is computed
// with the Chinese Remainder Theorem — two half-size exponentiations
// mod p and q plus Garner recombination instead of one full-size
// exponentiation mod n — reusing one set of scratch big.Ints and one
// result backing array across the whole batch. The one-shot Sign keeps
// the straightforward full-exponent path (it is the reproducible
// serial baseline the paper's cost model describes); on this
// implementation CRT alone is worth ~2.5-3x per signature.
func (s *Scheme) SignBatch(priv sigagg.PrivateKey, digests [][]byte) ([]sigagg.Signature, error) {
	pk, err := s.priv(priv)
	if err != nil {
		return nil, err
	}
	k := pk.key
	size := s.SignatureSize()
	out := make([]sigagg.Signature, len(digests))
	backing := make([]byte, len(digests)*size)
	if len(k.Primes) != 2 || k.Precomputed.Dp == nil {
		for i, d := range digests {
			m := fdh(d, k.N)
			sig := m.Exp(m, k.D, k.N)
			enc := backing[i*size : (i+1)*size : (i+1)*size]
			sig.FillBytes(enc)
			out[i] = enc
		}
		return out, nil
	}
	p, q := k.Primes[0], k.Primes[1]
	dp, dq, qinv := k.Precomputed.Dp, k.Precomputed.Dq, k.Precomputed.Qinv
	sp, sq := new(big.Int), new(big.Int)
	h := new(big.Int)
	for i, d := range digests {
		m := fdh(d, k.N)
		sp.Exp(m, dp, p)
		sq.Exp(m, dq, q)
		// Garner: sig = sq + q·(qinv·(sp - sq) mod p).
		h.Sub(sp, sq)
		h.Mul(h, qinv)
		h.Mod(h, p)
		h.Mul(h, q)
		h.Add(h, sq)
		enc := backing[i*size : (i+1)*size : (i+1)*size]
		h.FillBytes(enc)
		out[i] = enc
	}
	return out, nil
}

// Verify implements sigagg.Scheme: sig^e mod n == FDH(digest).
func (s *Scheme) Verify(pub sigagg.PublicKey, digest []byte, sig sigagg.Signature) error {
	return s.AggregateVerify(pub, [][]byte{digest}, sig)
}

// AggregateInto implements sigagg.Scheme: the modular product of
// signatures, which needs the signer's modulus n — aggregation is done
// by the untrusted server, so n comes from the owner's public key through
// Bind. Unbound, only the aggregate of zero signatures, the modulus-free
// multiplicative identity, is defined.
func (s *Scheme) AggregateInto(_ sigagg.Signature, sigs []sigagg.Signature) (sigagg.Signature, error) {
	if len(sigs) == 0 {
		return s.encode(big.NewInt(1)), nil
	}
	return nil, fmt.Errorf("crsa: aggregation requires the signer modulus; use sigagg.Bind(scheme, pub)")
}

// AggregateVerify implements sigagg.Scheme:
// agg^e mod n == prod_i FDH(digest_i) mod n.
func (s *Scheme) AggregateVerify(pub sigagg.PublicKey, digests [][]byte, agg sigagg.Signature) error {
	p, err := s.pub(pub)
	if err != nil {
		return err
	}
	a, err := s.sigInt(agg)
	if err != nil {
		return err
	}
	if a.Cmp(p.N) >= 0 {
		return fmt.Errorf("%w: aggregate out of range", sigagg.ErrBadSignature)
	}
	lhs := new(big.Int).Exp(a, big.NewInt(int64(p.E)), p.N)
	rhs := big.NewInt(1)
	for _, d := range digests {
		rhs.Mul(rhs, fdh(d, p.N))
		rhs.Mod(rhs, p.N)
	}
	if lhs.Cmp(rhs) != 0 {
		return fmt.Errorf("%w: condensed-RSA mismatch over %d digests",
			sigagg.ErrVerify, len(digests))
	}
	return nil
}

// VerifyJobs implements sigagg.Scheme. Verification is
// multiplicative, so a whole batch folds into one congruence:
// (Π agg_i)^e == Π_i Π_j FDH(digest_ij) mod n — one modular
// exponentiation for the batch where job-by-job verification pays one
// per job. A single tampered member anywhere makes the products differ
// and fails the whole batch; per-job attribution needs the one-shot
// AggregateVerify (see sigagg.Scheme.VerifyJobs).
func (s *Scheme) VerifyJobs(pub sigagg.PublicKey, jobs []sigagg.VerifyJob) error {
	p, err := s.pub(pub)
	if err != nil {
		return err
	}
	prod := big.NewInt(1)
	rhs := big.NewInt(1)
	total := 0
	for _, j := range jobs {
		a, err := s.sigInt(j.Agg)
		if err != nil {
			return err
		}
		if a.Cmp(p.N) >= 0 {
			return fmt.Errorf("%w: aggregate out of range", sigagg.ErrBadSignature)
		}
		prod.Mul(prod, a)
		prod.Mod(prod, p.N)
		for _, d := range j.Digests {
			rhs.Mul(rhs, fdh(d, p.N))
			rhs.Mod(rhs, p.N)
			total++
		}
	}
	lhs := prod.Exp(prod, big.NewInt(int64(p.E)), p.N)
	if lhs.Cmp(rhs) != 0 {
		return fmt.Errorf("%w: condensed-RSA batch mismatch over %d jobs (%d digests)",
			sigagg.ErrVerify, len(jobs), total)
	}
	return nil
}

// Bound is a condensed-RSA scheme bound to one signer's modulus, enabling
// aggregation (the modular product needs n). The query server learns n
// from the data aggregator's public key, which is public information.
type Bound struct {
	*Scheme
	n *big.Int
}

// Bind implements sigagg.Binder.
func (s *Scheme) Bind(pub sigagg.PublicKey) (sigagg.Scheme, error) {
	p, err := s.pub(pub)
	if err != nil {
		return nil, err
	}
	return &Bound{Scheme: s, n: p.N}, nil
}

// AggregateInto implements sigagg.Scheme: the modular product
// is accumulated in one big.Int and written into dst when it has
// capacity.
func (b *Bound) AggregateInto(dst sigagg.Signature, sigs []sigagg.Signature) (sigagg.Signature, error) {
	acc := big.NewInt(1)
	tmp := new(big.Int)
	for _, sig := range sigs {
		v, err := b.sigInt(sig)
		if err != nil {
			return nil, err
		}
		tmp.Mul(acc, v)
		acc.Mod(tmp, b.n)
	}
	size := b.SignatureSize()
	if cap(dst) < size {
		dst = make(sigagg.Signature, size)
	}
	dst = dst[:size]
	acc.FillBytes(dst)
	return dst, nil
}

// Remove cancels sig out of agg by multiplying with sig^-1 mod n: the
// capability repro/sigcache's eager maintenance needs (sigcache.Remover).
func (b *Bound) Remove(agg, sig sigagg.Signature) (sigagg.Signature, error) {
	a, err := b.sigInt(agg)
	if err != nil {
		return nil, err
	}
	v, err := b.sigInt(sig)
	if err != nil {
		return nil, err
	}
	inv := new(big.Int).ModInverse(v, b.n)
	if inv == nil {
		return nil, fmt.Errorf("%w: signature not invertible", sigagg.ErrBadSignature)
	}
	a.Mul(a, inv)
	a.Mod(a, b.n)
	return b.encode(a), nil
}
