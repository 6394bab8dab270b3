package bas

// Test-only options: the portable oracle and a small point cache.

// withPortableVerify routes verification through the portable slow
// path — crypto/elliptic and math/big throughout: affine curve.Add
// accumulation, per-call hash-to-curve, no caches or precomputation
// tables, none of the limb kernel. It is the cross-check oracle for the
// fast path: both produce identical accept/reject decisions. Unexported:
// the package's tests are its only callers.
func withPortableVerify() Option {
	return func(o *options) { o.portable = true }
}

// withCacheEntries bounds the digest→point cache (default
// defaultCacheEntries). Values below minCacheEntries are raised to it.
// Unexported: the eviction test is its only caller.
func withCacheEntries(n int) Option {
	return func(o *options) { o.cacheEntries = n }
}
