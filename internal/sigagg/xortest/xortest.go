// Package xortest provides a zero-cost stand-in aggregate "signature"
// scheme for experiments and tests that measure operation counts rather
// than cryptographic cost: signatures are keyed digests and aggregation
// is XOR (order-independent, self-inverse). It offers NO security — a
// forger who knows the key format can trivially sign — and exists only
// so that harnesses like the SigCache experiments can drive millions of
// aggregate operations and convert the counted operations into time via
// separately measured ECC costs.
package xortest

import (
	"crypto/sha256"
	"fmt"
	"io"

	"authdb/internal/sigagg"
)

// SigSize is the stand-in signature length (matching a 160-bit ECC
// signature's 20 bytes for space accounting).
const SigSize = 20

// Scheme is the XOR test scheme.
type Scheme struct{}

// New returns the scheme.
func New() *Scheme { return &Scheme{} }

// Name implements sigagg.Scheme.
func (*Scheme) Name() string { return "xortest" }

// SignatureSize implements sigagg.Scheme.
func (*Scheme) SignatureSize() int { return SigSize }

// PrivateKey is the shared test key.
type PrivateKey struct{ key [16]byte }

// SchemeName implements sigagg.PrivateKey.
func (*PrivateKey) SchemeName() string { return "xortest" }

// PublicKey mirrors the private key (keyed-MAC-style check).
type PublicKey struct{ key [16]byte }

// SchemeName implements sigagg.PublicKey.
func (*PublicKey) SchemeName() string { return "xortest" }

// KeyGen implements sigagg.Scheme.
func (s *Scheme) KeyGen(rnd io.Reader) (sigagg.PrivateKey, sigagg.PublicKey, error) {
	var k [16]byte
	if rnd != nil {
		if _, err := io.ReadFull(rnd, k[:]); err != nil {
			return nil, nil, err
		}
	}
	return &PrivateKey{key: k}, &PublicKey{key: k}, nil
}

func (s *Scheme) mac(key [16]byte, digest []byte) sigagg.Signature {
	h := sha256.New()
	h.Write(key[:])
	h.Write(digest)
	return sigagg.Signature(h.Sum(nil)[:SigSize])
}

// Sign implements sigagg.Scheme.
func (s *Scheme) Sign(priv sigagg.PrivateKey, digest []byte) (sigagg.Signature, error) {
	p, ok := priv.(*PrivateKey)
	if !ok {
		return nil, fmt.Errorf("xortest: wrong private key type %T", priv)
	}
	return s.mac(p.key, digest), nil
}

// SignBatch implements sigagg.Scheme: one keyed digest per
// message, sliced out of a single backing array.
func (s *Scheme) SignBatch(priv sigagg.PrivateKey, digests [][]byte) ([]sigagg.Signature, error) {
	p, ok := priv.(*PrivateKey)
	if !ok {
		return nil, fmt.Errorf("xortest: wrong private key type %T", priv)
	}
	out := make([]sigagg.Signature, len(digests))
	backing := make([]byte, len(digests)*SigSize)
	for i, d := range digests {
		enc := backing[i*SigSize : (i+1)*SigSize : (i+1)*SigSize]
		copy(enc, s.mac(p.key, d))
		out[i] = enc
	}
	return out, nil
}

// Verify implements sigagg.Scheme.
func (s *Scheme) Verify(pub sigagg.PublicKey, digest []byte, sig sigagg.Signature) error {
	return s.AggregateVerify(pub, [][]byte{digest}, sig)
}

// AggregateInto implements sigagg.Scheme: XOR of all
// signatures folded into dst when it has capacity.
func (s *Scheme) AggregateInto(dst sigagg.Signature, sigs []sigagg.Signature) (sigagg.Signature, error) {
	if cap(dst) < SigSize {
		dst = make(sigagg.Signature, SigSize)
	}
	dst = dst[:SigSize]
	for i := range dst {
		dst[i] = 0
	}
	for _, sig := range sigs {
		if len(sig) != SigSize {
			return nil, sigagg.ErrBadSignature
		}
		for i := range dst {
			dst[i] ^= sig[i]
		}
	}
	return dst, nil
}

// Remove cancels sig out of agg (XOR is self-inverse): the capability
// repro/sigcache's eager maintenance needs (sigcache.Remover).
func (s *Scheme) Remove(agg, sig sigagg.Signature) (sigagg.Signature, error) {
	return s.AggregateInto(nil, []sigagg.Signature{agg, sig})
}

// VerifyJobs implements sigagg.Scheme: XOR aggregation is
// linear, so the XOR of every job's aggregate must equal the XOR of the
// recomputed MACs of every digest across the batch. A single tampered
// member fails the whole batch.
func (s *Scheme) VerifyJobs(pub sigagg.PublicKey, jobs []sigagg.VerifyJob) error {
	p, ok := pub.(*PublicKey)
	if !ok {
		return fmt.Errorf("xortest: wrong public key type %T", pub)
	}
	var want, have [SigSize]byte
	total := 0
	for _, j := range jobs {
		if len(j.Agg) != SigSize {
			return sigagg.ErrBadSignature
		}
		for i := range have {
			have[i] ^= j.Agg[i]
		}
		for _, d := range j.Digests {
			sig := s.mac(p.key, d)
			for i := range want {
				want[i] ^= sig[i]
			}
			total++
		}
	}
	if want != have {
		return fmt.Errorf("%w: xortest batch mismatch over %d jobs (%d digests)",
			sigagg.ErrVerify, len(jobs), total)
	}
	return nil
}

// AggregateVerify implements sigagg.Scheme.
func (s *Scheme) AggregateVerify(pub sigagg.PublicKey, digests [][]byte, agg sigagg.Signature) error {
	p, ok := pub.(*PublicKey)
	if !ok {
		return fmt.Errorf("xortest: wrong public key type %T", pub)
	}
	want := make(sigagg.Signature, SigSize)
	for _, d := range digests {
		sig := s.mac(p.key, d)
		for i := range want {
			want[i] ^= sig[i]
		}
	}
	if string(want) != string(agg) {
		return fmt.Errorf("%w: xortest mismatch", sigagg.ErrVerify)
	}
	return nil
}
