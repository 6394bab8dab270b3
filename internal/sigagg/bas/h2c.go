package bas

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"
)

const h2cTag = "bas-h2c"

// hashToCurve maps a digest to a P-256 point by try-and-increment: the
// candidate x-coordinate is SHA-256(tag || digest || ctr) mod p, accepted
// when x³ − 3x + b is a quadratic residue mod p; y is the root
// (x³ − 3x + b)^((p+1)/4). Two candidates are tried on average, each one
// fixed square-root exponentiation on the limb field.
//
// msg is the caller's reusable buffer for tag || digest || ctr, so the
// loop allocates nothing once it has grown. The map is bit-identical to
// the math/big original (hashToCurvePortable), so signatures made
// before and after the kernel agree byte for byte.
func hashToCurve(a *affPoint, msg *[]byte, digest []byte) {
	m := append((*msg)[:0], h2cTag...)
	m = append(m, digest...)
	m = append(m, 0, 0, 0, 0)
	*msg = m
	ctr := m[len(m)-4:]
	var rhs fe
	for i := uint32(0); ; i++ {
		binary.BigEndian.PutUint32(ctr, i)
		h := sha256.Sum256(m)
		feSetBytes(&a.x, h[:])
		curveRHS(&rhs, &a.x)
		if feSqrt(&a.y, &rhs) {
			return
		}
	}
}

// Point cache. Verification traffic re-hashes the same record digests
// over and over — overlapping ranges share boundary records, hot ranges
// are re-verified every freshness window, and fleet clients re-check the
// same catalog on every replica — so the digest→H(d) map (two square
// roots on average) and the compressed-aggregate decode (one square
// root) are both memoized. Both functions are pure, so the cache is
// correctness-neutral; it only ever stores points that decoded/mapped
// successfully. Entries are affPoint values, already in Montgomery form:
// a hit is a map lookup and a 64-byte copy, with no pointer for the
// collector to trace.

const (
	cacheShards = 64
	// cacheKeyLen namespaces the two kinds of entries: tag byte + 33
	// bytes of payload (a digest and its length, or a 33-byte
	// compressed signature).
	cacheKeyLen = 34
)

// Entry kinds, the first byte of a key. A shard keeps one map per kind,
// each with its own bound: an answer brings one aggregate and many
// digests, and a stream of never-repeating aggregates (uniformly placed
// ranges) must only ever evict other aggregates, not the digests that
// every later answer over the same records hits.
const (
	tagDigest = iota
	tagAgg
	numTags
)

type cacheKey [cacheKeyLen]byte

// aggShare is the part of the cache's entries reserved for aggregate
// decodes: one in aggShare, 8,192 by default. Measured on the repo
// benchmark's plan_join (a few thousand live match and boundary
// aggregates, re-signed at 100 inserts/s): half of that loses a tenth of
// the verified plans per second, while all 65,536 entries verify no more
// and cost the client 15 MB once never-repeating aggregates fill them.
const aggShare = 8

type cacheShard struct {
	mu sync.RWMutex
	m  [numTags]map[cacheKey]affPoint
}

// pointCache is a sharded, size-bounded map from cache keys to curve
// points. Eviction is random-victim (Go map iteration order) per shard
// and kind, which is cheap and good enough for a memoization cache.
type pointCache struct {
	shards   [cacheShards]cacheShard
	perShard [numTags]int // max entries per shard, by kind

	h2cHits, h2cMisses atomic.Uint64
	aggHits, aggMisses atomic.Uint64
	evictions          atomic.Uint64
}

func newPointCache(entries int) *pointCache {
	per := entries / cacheShards
	if per < 8 {
		per = 8
	}
	c := &pointCache{}
	c.perShard[tagAgg] = per / aggShare
	c.perShard[tagDigest] = per - c.perShard[tagAgg]
	for i := range c.shards {
		for kind := range c.shards[i].m {
			c.shards[i].m[kind] = make(map[cacheKey]affPoint)
		}
	}
	return c
}

// digestKey builds the cache key for a record digest. A digest of up to
// 32 bytes (the system's are 20) is stored as it is, zero-padded, with
// its length in the last byte; a longer one is hashed down and marked
// with a length no short digest has, so distinct inputs never collide.
func digestKey(d []byte) cacheKey {
	var k cacheKey
	k[0] = tagDigest
	if len(d) <= 32 {
		copy(k[1:], d)
		k[cacheKeyLen-1] = byte(len(d))
	} else {
		h := sha256.Sum256(d)
		copy(k[1:], h[:])
		k[cacheKeyLen-1] = 0xff
	}
	return k
}

// aggKey builds the cache key for a compressed signature point.
func aggKey(sig []byte) cacheKey {
	var k cacheKey
	k[0] = tagAgg
	copy(k[1:], sig) // compressed points are exactly 33 bytes
	return k
}

// shard picks by the second payload byte, which is uniform for both key
// kinds: a digest byte, or a byte of the signature's x-coordinate. The
// first is not — a compressed point opens with its 0x02/0x03 sign prefix,
// which would put every aggregate in two shards.
func (c *pointCache) shard(k *cacheKey) *cacheShard {
	return &c.shards[k[2]&(cacheShards-1)]
}

func (c *pointCache) get(k *cacheKey, a *affPoint) bool {
	sh := c.shard(k)
	sh.mu.RLock()
	pt, ok := sh.m[k[0]][*k]
	sh.mu.RUnlock()
	if ok {
		*a = pt
	}
	return ok
}

// put inserts k. A victim of k's kind is evicted only to make room for a
// key the shard does not hold yet: two goroutines that missed on the same
// digest both put it, and the second must not cost the shard an entry.
func (c *pointCache) put(k *cacheKey, a *affPoint) {
	sh := c.shard(k)
	sh.mu.Lock()
	m := sh.m[k[0]]
	if _, resident := m[*k]; !resident && len(m) >= c.perShard[k[0]] {
		for victim := range m {
			delete(m, victim)
			c.evictions.Add(1)
			break
		}
	}
	m[*k] = *a
	sh.mu.Unlock()
}

// hashToCurveCached sets a = H(digest) through the cache; k is
// digestKey(digest), which the caller already has.
func (s *Scheme) hashToCurveCached(a *affPoint, msg *[]byte, k *cacheKey, digest []byte) {
	if s.cache.get(k, a) {
		s.cache.h2cHits.Add(1)
		return
	}
	s.cache.h2cMisses.Add(1)
	hashToCurve(a, msg, digest)
	s.cache.put(k, a)
}
