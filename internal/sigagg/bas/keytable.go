package bas

import (
	"math/big"
	"sync"
)

// Per-public-key state for the closing scalar multiplication of the
// trapdoor relation agg == x·ΣH(mᵢ): the scalar serialized at the
// fixed width curve.ScalarMult wants, and the count of distinct keys.
// One Scheme instance backs the whole process (a Pool's workers, every client a DialFleet opens across replicas of the
// same owner), so a key is counted exactly once process-wide.
//
// The multiplication itself stays on crypto/elliptic. A width-5 w-NAF
// multiplication on the limb kernel was measured against it (see
// BenchmarkWNAFMul / BenchmarkScalarMultClose): the assembly-backed
// nistec ScalarMult, conversions included, is the faster of the two, so
// the w-NAF code lives in the tests, where it drives the kernel through
// 256-step add/double chains against that same ScalarMult.

// tableKey identifies a public key by all three of its components,
// X ‖ Y ‖ Trapdoor, each as 32 big-endian bytes: two keys that share
// the point but not the trapdoor must not share a table. The last 32
// bytes are the table itself — the scalar as ScalarMult wants it.
type tableKey [96]byte

// tableCache remembers the public keys verified against, so that
// VerifyStats can report one table build per distinct key.
type tableCache struct {
	mu   sync.RWMutex
	seen map[tableKey]struct{}
}

func newTableCache() *tableCache {
	return &tableCache{seen: make(map[tableKey]struct{})}
}

// scalarFor returns p's trapdoor as a fixed-width scalar, counting p as
// built on first sight. It reports false for a key whose components are
// not 256-bit naturals, which no KeyGen produces.
func (tc *tableCache) scalarFor(p *PublicKey) (scalar [32]byte, ok bool) {
	var key tableKey
	for i, v := range [3]*big.Int{p.X, p.Y, p.Trapdoor} {
		if v == nil || v.Sign() < 0 || v.BitLen() > 256 {
			return scalar, false
		}
		v.FillBytes(key[i*32 : (i+1)*32])
	}
	tc.mu.RLock()
	_, known := tc.seen[key]
	tc.mu.RUnlock()
	if !known {
		tc.mu.Lock()
		tc.seen[key] = struct{}{}
		tc.mu.Unlock()
	}
	return [32]byte(key[64:]), true
}

func (tc *tableCache) buildCount() uint64 {
	tc.mu.RLock()
	defer tc.mu.RUnlock()
	return uint64(len(tc.seen))
}
