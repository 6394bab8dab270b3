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

	tagDigest = 'd'
	tagAgg    = 'a'
)

type cacheKey [cacheKeyLen]byte

type cacheShard struct {
	mu sync.RWMutex
	m  map[cacheKey]affPoint
}

// pointCache is a sharded, size-bounded map from cache keys to curve
// points. Eviction is random-victim (Go map iteration order) per shard,
// which is cheap and good enough for a memoization cache.
type pointCache struct {
	shards   [cacheShards]cacheShard
	perShard int // max entries per shard

	h2cHits, h2cMisses atomic.Uint64
	aggHits, aggMisses atomic.Uint64
	evictions          atomic.Uint64
}

func newPointCache(entries int) *pointCache {
	c := &pointCache{perShard: entries / cacheShards}
	if c.perShard < 8 {
		c.perShard = 8
	}
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey]affPoint)
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

func (c *pointCache) shard(k *cacheKey) *cacheShard {
	return &c.shards[k[1]&(cacheShards-1)]
}

func (c *pointCache) get(k *cacheKey, a *affPoint) bool {
	sh := c.shard(k)
	sh.mu.RLock()
	pt, ok := sh.m[*k]
	sh.mu.RUnlock()
	if ok {
		*a = pt
	}
	return ok
}

// put inserts k. A victim is evicted only to make room for a key the
// shard does not hold yet: two goroutines that missed on the same digest
// both put it, and the second must not cost the shard an entry.
func (c *pointCache) put(k *cacheKey, a *affPoint) {
	sh := c.shard(k)
	sh.mu.Lock()
	if _, resident := sh.m[*k]; !resident && len(sh.m) >= c.perShard {
		for victim := range sh.m {
			delete(sh.m, victim)
			c.evictions.Add(1)
			break
		}
	}
	sh.m[*k] = *a
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
