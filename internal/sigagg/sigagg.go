// Package sigagg defines the aggregate-signature abstraction the
// authentication protocol is built on.
//
// An aggregate signature scheme lets any set of message/signature pairs be
// condensed, in arbitrary order, into a single signature that is verified
// collectively (Boneh et al.). The paper evaluates two instantiations —
// Bilinear Aggregate Signatures (BAS, 160-bit) and condensed RSA
// (1024-bit) — which packages sigagg/bas and sigagg/crsa provide.
package sigagg

import (
	"errors"
	"io"
)

// Signature is an opaque scheme-specific signature or aggregate.
type Signature []byte

// Clone returns a copy of the signature.
func (s Signature) Clone() Signature {
	c := make(Signature, len(s))
	copy(c, s)
	return c
}

// PrivateKey is an opaque scheme-specific signing key.
type PrivateKey interface {
	// SchemeName reports the scheme this key belongs to.
	SchemeName() string
}

// PublicKey is an opaque scheme-specific verification key.
type PublicKey interface {
	// SchemeName reports the scheme this key belongs to.
	SchemeName() string
}

// Scheme is an aggregate signature scheme. Implementations must be safe
// for concurrent use.
type Scheme interface {
	// Name is a short identifier, e.g. "bas" or "crsa".
	Name() string

	// SignatureSize is the length in bytes of a (possibly aggregate)
	// signature.
	SignatureSize() int

	// KeyGen generates a key pair using entropy from rand.
	KeyGen(rand io.Reader) (PrivateKey, PublicKey, error)

	// Sign produces a signature over a message digest.
	Sign(priv PrivateKey, digest []byte) (Signature, error)

	// Verify checks a single signature over digest.
	Verify(pub PublicKey, digest []byte, sig Signature) error

	// AggregateVerify checks that agg is the aggregate of valid
	// signatures over exactly the given digests (in any order).
	AggregateVerify(pub PublicKey, digests [][]byte, agg Signature) error

	// SignBatch signs many digests in one call, amortizing per-call
	// setup — key material decoding, scratch big.Int storage,
	// CRT/Montgomery precomputation, one result allocation for the whole
	// batch — across the messages. It produces exactly the signatures
	// Sign would.
	SignBatch(priv PrivateKey, digests [][]byte) ([]Signature, error)

	// VerifyJobs checks many aggregate-verification jobs in one call,
	// sharing the expensive number-theoretic work (one combined modular
	// exponentiation, or one scalar multiplication over the summed
	// points) across the batch. A nil return means every job verified;
	// an error means at least one job in the batch is invalid.
	//
	// Batch verification has set semantics: it proves the union of all
	// digests is correctly signed by the union of the aggregates, which
	// is exactly as unforgeable as one aggregate verification over the
	// union, but does not attribute a failure to a specific job. Callers
	// that need attribution re-verify the failed batch job by job with
	// AggregateVerify.
	VerifyJobs(pub PublicKey, jobs []VerifyJob) error

	// AggregateInto condenses any number of signatures (or aggregates)
	// into one, in any order; an empty input yields the scheme's identity
	// aggregate. The result is written into dst's storage when that has
	// the capacity (dst may be nil; pass nil or a scratch buffer when the
	// result escapes to long-lived state). Each input is decoded exactly
	// once and the result encoded once. Proof construction that adds the
	// same stored signatures again and again uses a Folder instead
	// (FolderFor).
	AggregateInto(dst Signature, sigs []Signature) (Signature, error)
}

// VerifyJob pairs one aggregate signature with the digests it must
// cover — the unit of batch verification.
type VerifyJob struct {
	Digests [][]byte
	Agg     Signature
}

// VerifyStats are the monotonic counters of a scheme's verification
// fast path. Counters are process-wide for the scheme instance they are
// read from: a cache shared by many verifier sessions reports the
// combined traffic.
type VerifyStats struct {
	// H2CCacheHits/Misses count hash-to-curve lookups served from the
	// digest→point cache vs computed with the full try-and-increment map.
	H2CCacheHits   uint64 `json:"h2c_cache_hits"`
	H2CCacheMisses uint64 `json:"h2c_cache_misses"`
	// AggCacheMisses counts aggregate-signature point decodes (a
	// compressed-point decode costs a square root). No scheme caches
	// them any more — a verifier that would see an aggregate twice
	// remembers the whole claim instead (core.Verifier.VerifyJobs) — so
	// AggCacheHits stays 0; both fields remain for the readers compiled
	// against them.
	AggCacheHits   uint64 `json:"agg_cache_hits"`
	AggCacheMisses uint64 `json:"agg_cache_misses"`
	// CacheEvictions counts cached points dropped by the size bound.
	CacheEvictions uint64 `json:"cache_evictions"`
	// TableBuilds counts per-public-key precomputation tables built;
	// verifications after the first reuse the key's table.
	TableBuilds uint64 `json:"table_builds"`
	// FastVerifies/PortableVerifies count verification calls dispatched
	// to the precomputed fast path vs the portable slow path.
	FastVerifies     uint64 `json:"fast_verifies"`
	PortableVerifies uint64 `json:"portable_verifies"`
	// EmulatedPairings counts the pairing evaluations a scheme that
	// emulates them charged at its configured cost (0 when the cost is 0):
	// t+1 per verified aggregate of t signatures.
	EmulatedPairings uint64 `json:"emulated_pairings"`
}

// VerifyStatsProvider is an optional Scheme capability: schemes with a
// verification fast path report its counters, so serving stacks can
// assert the fast path is actually exercised (and alert when it is not).
type VerifyStatsProvider interface {
	VerifyStats() VerifyStats
}

// Binder is implemented by schemes whose aggregation operations need the
// signer's public parameters (e.g. the RSA modulus for condensed RSA).
type Binder interface {
	// Bind returns a Scheme whose AggregateInto operates under pub's
	// parameters.
	Bind(pub PublicKey) (Scheme, error)
}

// Bind returns a fully-usable scheme for the signer pub: s.Bind(pub) when
// s needs binding, s itself otherwise.
func Bind(s Scheme, pub PublicKey) (Scheme, error) {
	if b, ok := s.(Binder); ok {
		return b.Bind(pub)
	}
	return s, nil
}

// ErrVerify is returned (possibly wrapped) when signature verification
// fails.
var ErrVerify = errors.New("sigagg: signature verification failed")

// ErrBadSignature is returned when a signature is malformed.
var ErrBadSignature = errors.New("sigagg: malformed signature")
