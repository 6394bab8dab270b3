package bas

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"authdb/internal/sigagg"
)

// The point table is checked against a plain map. Eviction picks its
// victims at random, so the map cannot predict *which* keys are resident
// once the table is over its bound; it holds every key ever put and the
// point put for it, and the oracle checks what must hold whichever victim
// was taken: a hit returns the point that was put; nothing is evicted
// before the table holds its bound; putting a resident key changes
// nothing; a new key at the bound costs exactly one entry; and the index
// reaches every slot from its key (oracle.audit).

// testKey is key number i: uniform payload bytes, as real digests have.
func testKey(i int) cacheKey {
	h := sha256.Sum256([]byte{byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24)})
	return digestKey(h[:20])
}

// homedKey is a digest key whose hash under seed is want: the two
// multiply-xorshift rounds of pointCache.hash run backwards.
func homedKey(seed, want uint64) cacheKey {
	inv := func(c uint64) uint64 { // Newton: five steps double 3 correct bits past 64
		x := c
		for i := 0; i < 5; i++ {
			x *= 2 - c*x
		}
		return x
	}
	x := want
	x ^= x >> 32
	x *= inv(hashMul2)
	x ^= x >> 32
	x *= inv(hashMul1)
	var k cacheKey
	binary.LittleEndian.PutUint64(k[:8], x^seed)
	k[cacheKeyLen-1] = 20
	return k
}

// testPoint is the point "computed" for k: any value that is a function
// of the key alone.
func testPoint(k *cacheKey) affPoint {
	h := sha256.Sum256(k[:])
	var a affPoint
	for i := range a.x {
		a.x[i] = binary.LittleEndian.Uint64(h[8*i:])
		a.y[i] = ^a.x[i]
	}
	return a
}

type oracle struct {
	t        testing.TB
	c        *pointCache
	put      map[cacheKey]affPoint // every key ever put
	distinct int
}

func newOracle(t testing.TB, entries int, seed uint64) *oracle {
	return &oracle{t: t, c: newPointCache(entries, seed), put: map[cacheKey]affPoint{}}
}

// doPut puts k and checks what the put may and may not have changed.
func (o *oracle) doPut(k cacheKey) {
	o.t.Helper()
	c, t := o.c, &o.c.table
	h := c.hash(&k)
	resident := t.find(h, &k) >= 0
	n, evicted := t.n, c.evictions.Load()
	pt := testPoint(&k)
	c.put(h, &k, &pt)
	if _, seen := o.put[k]; !seen {
		o.put[k] = pt
		o.distinct++
	}
	wantLen, wantEvicted := n, evicted
	switch {
	case resident:
	case n < t.bound:
		wantLen++
	default:
		wantEvicted++
	}
	if t.n != wantLen || c.evictions.Load() != wantEvicted {
		o.t.Fatalf("put (resident=%v, %d of %d slots): %d slots and %d evictions after, want %d and %d",
			resident, n, t.bound, t.n, c.evictions.Load()-evicted, wantLen, wantEvicted-evicted)
	}
	if s := t.find(h, &k); s < 0 || t.slot(s).pt != pt {
		o.t.Fatalf("a key just put is not resident with its point (slot %d)", s)
	}
}

// check compares one lookup's outcome with the map.
func (o *oracle) check(k *cacheKey, slot int32) {
	o.t.Helper()
	t := &o.c.table
	want, seen := o.put[*k]
	switch {
	case slot >= 0 && !seen:
		o.t.Fatalf("hit on a key never put")
	case slot >= 0 && (t.slot(slot).key != *k || t.slot(slot).pt != want):
		o.t.Fatalf("hit returned another key's slot or another point")
	case slot < 0 && seen && o.distinct <= t.bound:
		o.t.Fatalf("miss on a key that was put, with %d distinct keys in a table bounded at %d",
			o.distinct, t.bound)
	}
}

func (o *oracle) doGet(k cacheKey) {
	o.t.Helper()
	o.check(&k, o.c.table.find(o.c.hash(&k), &k))
}

// doProbe looks keys up the way sumJobs does: locate a block, then
// confirm each candidate.
func (o *oracle) doProbe(keys []cacheKey) {
	o.t.Helper()
	t := &o.c.table
	block := make([]probeEntry, len(keys))
	for i := range keys {
		block[i] = probeEntry{key: keys[i], hash: o.c.hash(&keys[i])}
	}
	o.c.locateBlock(block)
	for i := range block {
		hit, slot := o.c.confirm(&block[i]), t.find(block[i].hash, &keys[i])
		if (hit == nil) != (slot < 0) || hit != nil && hit != &t.slot(slot).pt {
			o.t.Fatalf("batch probe found %p, find slot %d", hit, slot)
		}
		o.check(&keys[i], slot)
	}
}

// audit walks the table: the bound holds, the chunks are whole but for
// a last one cut to the bound, no more than one chunk is unused, the
// index has one entry per slot, and every slot is reached from its own
// key.
func (o *oracle) audit() {
	o.t.Helper()
	t := &o.c.table
	if t.n > t.capacity || t.capacity > t.bound || t.capacity-t.n >= chunkSlots || len(t.index) < 2*t.capacity {
		o.t.Fatalf("%d slots (capacity %d) under bound %d with an index of %d",
			t.n, t.capacity, t.bound, len(t.index))
	}
	allocated := 0
	for i, chunk := range t.chunks {
		if len(chunk) != chunkSlots && (i != len(t.chunks)-1 || allocated+len(chunk) != t.bound) {
			o.t.Fatalf("chunk %d of %d holds %d slots (bound %d)", i, len(t.chunks), len(chunk), t.bound)
		}
		allocated += len(chunk)
	}
	if allocated != t.capacity {
		o.t.Fatalf("%d slots in the chunks, capacity %d", allocated, t.capacity)
	}
	if want := min(o.distinct, t.bound); t.n != want {
		o.t.Fatalf("%d entries after %d distinct keys, bound %d", t.n, o.distinct, t.bound)
	}
	used := 0
	for _, e := range t.index {
		if e != 0 {
			used++
		}
	}
	if used != t.n {
		o.t.Fatalf("%d index entries for %d slots", used, t.n)
	}
	for s := range int32(t.n) {
		k := &t.slot(s).key
		if got := t.find(o.c.hash(k), k); got != s {
			o.t.Fatalf("slot %d's key is found at %d", s, got)
		}
	}
}

// TestTableMatchesMapOracle drives seeded streams of puts, gets and batch
// probes — four times the bound in distinct keys, an eighth of them forced
// onto one home position — through the oracle: four seeds on the
// smallest table, one chunk, and one on a table of a whole chunk and a
// last one cut to the bound.
func TestTableMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bound := minCacheEntries
		if seed == 5 {
			bound = chunkSlots + 300
		}
		o := newOracle(t, bound, rng.Uint64())
		keyOf := func(i int) cacheKey {
			if i%8 == 0 {
				return homedKey(o.c.seed, 0xabcd<<48|uint64(i))
			}
			return testKey(i)
		}
		steps := 12000 * bound / minCacheEntries
		for step := 0; step < steps; step++ {
			// The key space opens up as the stream runs, so that it passes
			// through "everything fits" into "four times the bound".
			space := 1 + 4*bound*step/steps
			switch op := rng.Intn(10); {
			case op < 4:
				o.doPut(keyOf(rng.Intn(space)))
			case op < 8:
				o.doGet(keyOf(rng.Intn(space + 8)))
			default:
				keys := make([]cacheKey, rng.Intn(2*probeBlock))
				for i := range keys {
					keys[i] = keyOf(rng.Intn(space + 8))
				}
				o.doProbe(keys)
			}
			if step%(steps/24) == 0 {
				o.audit()
			}
		}
		o.audit()
		if o.distinct < 2*o.c.table.bound {
			t.Fatalf("seed %d: only %d distinct keys, bound %d", seed, o.distinct, o.c.table.bound)
		}
	}
}

// TestCacheEvictionBounded: a working set inside the bound is fully
// resident — nothing is evicted before the table is full — and one past it
// is held to the bound while verification stays correct (evicted entries
// are re-derived, never assumed).
func TestCacheEvictionBounded(t *testing.T) {
	s := New(0, withCacheEntries(1)) // clamps to minCacheEntries
	dt := &s.cache.table
	if dt.bound != minCacheEntries {
		t.Fatalf("clamped bound is %d digests", dt.bound)
	}
	priv, pub, err := s.KeyGen(newDetRand(9))
	if err != nil {
		t.Fatal(err)
	}
	digests := testDigests(3000, 13)
	sigs, err := s.SignBatch(priv, digests)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]sigagg.VerifyJob, len(digests))
	for i := range digests {
		jobs[i] = sigagg.VerifyJob{Digests: digests[i : i+1], Agg: sigs[i]}
	}

	// Exactly the bound in digests: every one of them must still be there
	// afterwards.
	for lo := 0; lo < dt.bound; lo += 8 {
		agg, err := s.AggregateInto(nil, sigs[lo:lo+8])
		if err != nil {
			t.Fatal(err)
		}
		if err := s.VerifyJobs(pub, []sigagg.VerifyJob{{Digests: digests[lo : lo+8], Agg: agg}}); err != nil {
			t.Fatal(err)
		}
	}
	before := s.VerifyStats()
	if before.CacheEvictions != 0 || dt.n != dt.bound {
		t.Fatalf("%d evictions and %d of %d digests resident before the bound was passed",
			before.CacheEvictions, dt.n, dt.bound)
	}
	for lo := 0; lo < dt.bound; lo += 8 {
		agg, _ := s.AggregateInto(nil, sigs[lo:lo+8])
		if err := s.VerifyJobs(pub, []sigagg.VerifyJob{{Digests: digests[lo : lo+8], Agg: agg}}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.VerifyStats(); st.H2CCacheMisses != before.H2CCacheMisses {
		t.Fatalf("a working set the size of the bound was not fully resident: %+v -> %+v", before, st)
	}

	// Past the bound, twice: some hits, some evicted and recomputed, same
	// answer, and never more than the bound resident.
	for round := 0; round < 2; round++ {
		if err := s.VerifyJobs(pub, jobs); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.VerifyStats(); st.CacheEvictions == 0 {
		t.Fatalf("expected evictions with %d digests in a clamped cache: %+v", len(digests), st)
	}
	if dt.n != dt.bound {
		t.Fatalf("%d digests resident, bound %d", dt.n, dt.bound)
	}
}

// TestCachePutResidentKeepsShardFull is the regression test for put
// evicting a victim even when the key was already resident: two
// goroutines that miss on the same digest both put it, and each repeat
// cost a full table one entry. (The shards of its name are gone; the
// property is the table's now.)
func TestCachePutResidentKeepsShardFull(t *testing.T) {
	o := newOracle(t, 0, 7)
	full := o.c.table.bound
	for i := 0; i < full; i++ {
		o.doPut(digestKey([]byte{byte(i), byte(i >> 8)})) // short digests: little to place by
	}
	for i := 0; i < 10; i++ {
		o.doPut(digestKey([]byte{0, 0}))
	}
	if n, ev := o.c.table.n, o.c.evictions.Load(); n != full || ev != 0 {
		t.Fatalf("re-putting a resident key: %d of %d entries, %d evictions", n, full, ev)
	}
	o.doPut(digestKey([]byte{0xff, 0xff, 1}))
	if n, ev := o.c.table.n, o.c.evictions.Load(); n != full || ev != 1 {
		t.Fatalf("a new key in a full table: %d entries, %d evictions; want %d and 1", n, ev, full)
	}
	o.audit()
}

// TestSeedChangesPlacement: where a key sits depends on the cache's seed,
// so keys built to share one home position in one cache — 4,096 of them,
// built for seed 0 — are spread like any others in a cache whose seed
// their author did not know, and are all found in both.
func TestSeedChangesPlacement(t *testing.T) {
	const n = 4096
	keys := make([]cacheKey, n)
	for i := range keys {
		keys[i] = homedKey(0, 0x5eed<<48|uint64(i)<<8)
	}
	homes := func(seed uint64) (distinct int, c *pointCache) {
		o := newOracle(t, 2*n, seed)
		for i := range keys {
			o.doPut(keys[i])
		}
		o.audit()
		tb := &o.c.table
		seen := map[uint64]bool{}
		for i := range keys {
			h := o.c.hash(&keys[i])
			if tb.find(h, &keys[i]) < 0 {
				t.Fatalf("seed %#x: key %d is not resident", seed, i)
			}
			seen[h>>tb.shift] = true
		}
		return len(seen), o.c
	}
	aimed, c0 := homes(0)
	if aimed != 1 {
		t.Fatalf("the crafted keys have %d home positions under the seed they were crafted for, want 1", aimed)
	}
	spread, c1 := homes(0x243f6a8885a308d3)
	if spread < n/2 {
		t.Fatalf("under another seed the crafted keys still share %d home positions among %d", spread, n)
	}
	// And ordinary keys: the same ones sit at different positions.
	moved := 0
	for i := 0; i < 1000; i++ {
		k := testKey(i)
		if c0.hash(&k)>>c0.table.shift != c1.hash(&k)>>c1.table.shift {
			moved++
		}
	}
	if moved < 990 {
		t.Fatalf("only %d of 1000 keys changed home position with the seed", moved)
	}
	if a, b := New(0), New(0); a.cache.seed == b.cache.seed {
		t.Fatalf("two schemes drew the same placement seed %#x", a.cache.seed)
	}
}

// TestSumJobsConcurrentMisses: eight goroutines verify overlapping cold
// digest sets on one Scheme — window g covers slices g and g+1 of the
// digests, three rounds each — so every table growth, every put of a key a
// neighbour has just put and every read pass beside a write happens under
// -race. All accept; a digest's H(d) is computed once by each goroutine
// that can miss on it (two windows hold it) and never again once it is
// resident; and a tampered job is still rejected, and attributed when the
// batch is re-verified job by job.
func TestSumJobsConcurrentMisses(t *testing.T) {
	const workers, slice, per = 8, 200, 50
	s := New(0)
	priv, pub, err := s.KeyGen(newDetRand(21))
	if err != nil {
		t.Fatal(err)
	}
	digests := testDigests((workers+1)*slice, 22)
	sigs, err := s.SignBatch(priv, digests)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]sigagg.VerifyJob, len(digests)/per)
	for i := range jobs {
		agg, err := s.AggregateInto(nil, sigs[i*per:(i+1)*per])
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = sigagg.VerifyJob{Digests: digests[i*per : (i+1)*per], Agg: agg}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			window := jobs[g*slice/per : (g+2)*slice/per]
			for round := 0; round < 3; round++ {
				if err := s.VerifyJobs(pub, window); err != nil {
					errs <- fmt.Errorf("worker %d round %d: %w", g, round, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.VerifyStats()
	if st.H2CCacheMisses < uint64(len(digests)) || st.H2CCacheMisses > uint64(2*len(digests)) {
		t.Errorf("%d digests cost %d hash-to-curve computations, want between one and two each", len(digests), st.H2CCacheMisses)
	}
	if lookups := uint64(workers * 3 * 2 * slice); st.H2CCacheHits+st.H2CCacheMisses != lookups {
		t.Errorf("%d hits + %d misses, want %d lookups", st.H2CCacheHits, st.H2CCacheMisses, lookups)
	}
	if got := s.cache.table.n; got != len(digests) || st.CacheEvictions != 0 {
		t.Errorf("%d of %d digests resident, %d evictions", got, len(digests), st.CacheEvictions)
	}

	bad := append([]sigagg.VerifyJob(nil), jobs[:8]...)
	bad[5].Digests = append(append([][]byte(nil), bad[5].Digests[:per-1]...), digests[len(digests)-1])
	if err := s.VerifyJobs(pub, bad); err == nil {
		t.Fatal("a batch with a substituted digest verified")
	}
	for i, j := range bad {
		if err := s.AggregateVerify(pub, j.Digests, j.Agg); (err != nil) != (i == 5) {
			t.Errorf("job %d alone: %v; the tampered job is 5", i, err)
		}
	}
}
