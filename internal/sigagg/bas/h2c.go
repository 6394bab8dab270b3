package bas

import (
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
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
// over and over — overlapping ranges share boundary records, and a
// record's digest outlives every answer it appears in until the owner
// re-signs it — so the digest→H(d) map (two square roots on average) is
// memoized. The map is pure, so the cache is correctness-neutral, and a
// hit compares the whole 33-byte key. Aggregates are not cached: for
// honest data a repeated aggregate is a repeated claim, which the
// verifier's claim memo (core.Verifier.CheckClaims) drops before it gets
// here, so a table of decoded aggregates would hold only points nobody
// asks for again.
//
// A hit is memory latency, not arithmetic: with 20,000 digests resident
// the points alone are 2 MB, so every lookup leaves L1 and, beside a
// process that streams answers through the same core, usually L2. The
// layout is therefore built to make the misses few and to let the misses
// of one batch overlap:
//
//   - One pointTable. Its slots — point and key side by side, 104 bytes —
//     are a dense sequence that only ever grows, a fixed chunk of
//     chunkSlots at a time up to the bound, and whose entries are
//     overwritten in place, never emptied. A slot number is a chunk and an
//     offset. A full table is exactly bound slots: there is no load-factor
//     slack on the 104-byte side, and a growing one leaves at most one
//     chunk unused and copies no slot.
//   - Beside it a small open-addressed index of uint32s, at most half
//     full: 8 bits of fingerprint and 24 of slot number, linear probing
//     from a home position taken from the top bits of a salted mix of the
//     key's first eight bytes (already uniform: a digest). A slot is
//     touched only on a fingerprint match, so a hit is one index line and
//     the slot's own lines.
//   - Nothing is evicted before the table holds bound entries, and putting
//     a resident key again changes nothing. At the bound a new key
//     overwrites a randomly chosen slot: the victim's index entry is
//     removed by backward-shift deletion (probe chains stay intact, no
//     tombstones) and the new key's inserted.
//   - The seed is drawn per cache, so a peer who chooses record contents
//     cannot aim digests at one home position of a cache it cannot see;
//     digests that do share one cost a longer probe, never a wrong point.
//   - One RWMutex, taken once per verification call, not per digest
//     (sumJobs): lock atomics order memory, and a pair around every lookup
//     keeps the core from overlapping one digest's cache misses with the
//     next one's. Under the one read lock sumJobs first locates a block of
//     entries (locateBlock) — index probe, then a load from each candidate
//     slot's lines, all independent — and only then compares keys and
//     adds. H(d) for the misses is computed with no lock held and stored
//     under one write lock; the hit and miss counters are added once per
//     call.

const (
	// cacheKeyLen is 32 bytes of digest (or of a longer digest's hash)
	// and one of length; see digestKey.
	cacheKeyLen = 33

	// An index entry is fingerprint<<slotBits | slot+1; zero is empty.
	slotBits = 24
	slotMask = 1<<slotBits - 1

	// minCacheEntries is the smallest cache New builds.
	minCacheEntries = 512

	// A chunk of the slot sequence is 1<<chunkBits slots, 213 KB.
	chunkBits  = 11
	chunkSlots = 1 << chunkBits

	// Odd multipliers of pointCache.hash's two rounds.
	hashMul1 = 0x9e3779b97f4a7c15
	hashMul2 = 0xd6e8feb86659fd93
)

type cacheKey [cacheKeyLen]byte

// tableSlot is one resident entry. No pointers: the collector skips the
// slot array.
type tableSlot struct {
	pt  affPoint
	key cacheKey
}

// pointTable holds the entries; see the comment above.
type pointTable struct {
	index    []uint32 // len a power of two ≥ 2·capacity
	shift    uint     // 64 − log2(len(index))
	chunks   [][]tableSlot
	n        int // slots in use: 0..n-1
	capacity int // slots allocated: every chunk is chunkSlots but a last one cut to the bound
	bound    int
}

// slot is slot number s.
func (t *pointTable) slot(s int32) *tableSlot {
	return &t.chunks[s>>chunkBits][s&(chunkSlots-1)]
}

// pointCache is the table, its lock, the placement seed and the counters
// VerifyStats reports.
type pointCache struct {
	mu    sync.RWMutex
	table pointTable
	seed  uint64
	rng   uint64 // victim choice; guarded by mu held for writing

	h2cHits, h2cMisses atomic.Uint64
	aggDecodes         atomic.Uint64
	evictions          atomic.Uint64
}

func newPointCache(entries int, seed uint64) *pointCache {
	c := &pointCache{seed: seed, rng: seed | 1}
	// No chunk before the first put: the empty table's index is one empty
	// entry, every key's home (h >> 64 is 0).
	c.table.index, c.table.shift = make([]uint32, 1), 64
	c.table.bound = min(max(entries, minCacheEntries), slotMask)
	return c
}

// hash is the 64 bits that place k: home position from the top, index
// fingerprint from the middle (and sumJobs' per-call dedupe from the top
// again). Two multiply rounds over the salted word, so that neither the
// position nor the fingerprint is a function of a few key bits.
func (c *pointCache) hash(k *cacheKey) uint64 {
	x := (binary.LittleEndian.Uint64(k[:8]) ^ c.seed) * hashMul1
	x ^= x >> 32
	x *= hashMul2
	return x ^ x>>32
}

func fingerprint(h uint64) uint32 { return uint32(h) &^ slotMask }

// locate returns the slot of the first index entry on h's probe chain
// that carries h's fingerprint, or -1 when the chain has none — in which
// case no key hashing to h is resident. The caller compares the key.
// (find without its comparison, apart so that it inlines into
// locateBlock's loop.)
func (t *pointTable) locate(h uint64) int32 {
	mask := uint32(len(t.index) - 1)
	fp := fingerprint(h)
	for i := uint32(h >> t.shift); ; i = (i + 1) & mask {
		e := t.index[i]
		if e == 0 {
			return -1
		}
		if e&^slotMask == fp {
			return int32(e&slotMask) - 1
		}
	}
}

// locateBlock sets every entry's candidate slot and loads from each
// candidate's cache lines (a 104-byte slot spans up to three). The loads
// of different entries do not depend on one another, so their misses are
// in flight together; the returned sum only keeps them alive. The caller
// holds c.mu for reading, here and in confirm.
func (c *pointCache) locateBlock(block []probeEntry) (sink uint64) {
	for i := range block {
		e := &block[i]
		t := &c.table
		if e.slot = t.locate(e.hash); e.slot >= 0 {
			sl := t.slot(e.slot)
			sink += sl.pt.x[0] + sl.pt.y[3] + uint64(sl.key[cacheKeyLen-1])
		}
	}
	return sink
}

// confirm turns the candidate locateBlock left in e into e's point, or
// nil for a miss: the candidate's unless it was another key's
// fingerprint, which costs a second walk down the chain. The point is the
// table's own, valid while the read lock is held.
func (c *pointCache) confirm(e *probeEntry) *affPoint {
	t := &c.table
	if e.slot >= 0 && t.slot(e.slot).key != e.key {
		e.slot = t.find(e.hash, &e.key)
	}
	if e.slot < 0 {
		return nil
	}
	return &t.slot(e.slot).pt
}

// find returns the slot holding k, or -1.
func (t *pointTable) find(h uint64, k *cacheKey) int32 {
	mask := uint32(len(t.index) - 1)
	fp := fingerprint(h)
	for i := uint32(h >> t.shift); ; i = (i + 1) & mask {
		e := t.index[i]
		if e == 0 {
			return -1
		}
		if e&^slotMask == fp {
			if s := int32(e&slotMask) - 1; t.slot(s).key == *k {
				return s
			}
		}
	}
}

// enter records in the index that slot s holds a key hashing to h.
func (t *pointTable) enter(h uint64, s int) {
	mask := uint32(len(t.index) - 1)
	i := uint32(h >> t.shift)
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = fingerprint(h) | uint32(s+1)
}

// leave removes slot s's index entry (h is its key's hash) and closes
// the gap by backward shift: a later entry of the run moves into the hole
// when the hole lies on its own probe path, so every remaining entry is
// still reachable from its home position.
func (t *pointTable) leave(c *pointCache, h uint64, s int) {
	mask := uint32(len(t.index) - 1)
	i := uint32(h >> t.shift)
	for t.index[i]&slotMask != uint32(s+1) {
		if t.index[i] == 0 {
			panic("bas: point table index lost a resident slot")
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		home := uint32(c.hash(&t.slot(int32(t.index[j]&slotMask)-1).key) >> t.shift)
		if (j-home)&mask >= (j-i)&mask {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = 0
}

// grow adds a chunk, up to the bound, and rebuilds the index at no more
// than half full for the new capacity.
func (t *pointTable) grow(c *pointCache) {
	chunk := make([]tableSlot, min(chunkSlots, t.bound-t.capacity))
	t.chunks = append(t.chunks, chunk)
	t.capacity += len(chunk)
	logLen := uint(bits.Len(uint(2*t.capacity - 1)))
	t.index = make([]uint32, 1<<logLen)
	t.shift = 64 - logLen
	for s := range t.n {
		t.enter(c.hash(&t.slot(int32(s)).key), s)
	}
}

// put stores k → a; h is c.hash(k). The caller holds c.mu
// for writing. A resident key is left as it is (two goroutines that
// missed on the same digest both put it, and the second must not cost the
// table an entry); a victim is overwritten only once the table holds
// bound entries.
func (c *pointCache) put(h uint64, k *cacheKey, a *affPoint) {
	t := &c.table
	if t.find(h, k) >= 0 {
		return
	}
	s := t.n
	if s < t.bound {
		if s == t.capacity {
			t.grow(c)
		}
		t.n++
	} else {
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		hi, _ := bits.Mul64(c.rng, uint64(t.bound))
		s = int(hi)
		t.leave(c, c.hash(&t.slot(int32(s)).key), s)
		c.evictions.Add(1)
	}
	*t.slot(int32(s)) = tableSlot{pt: *a, key: *k}
	t.enter(h, s)
}

// digestKey builds the cache key for a record digest. A digest of up to
// 32 bytes (the system's are 20) is stored as it is, zero-padded, with
// its length in the last byte; a longer one is hashed down and marked
// with a length no short digest has, so distinct inputs never collide.
func digestKey(d []byte) cacheKey {
	var k cacheKey
	if len(d) <= 32 {
		copy(k[:], d)
		k[cacheKeyLen-1] = byte(len(d))
	} else {
		h := sha256.Sum256(d)
		copy(k[:], h[:])
		k[cacheKeyLen-1] = 0xff
	}
	return k
}
