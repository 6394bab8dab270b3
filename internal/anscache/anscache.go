// Package anscache is the serving layer's answer cache: a sharded,
// concurrent cache of fully materialized query answers — the decoded
// answer, its pre-encoded wire bytes, and the stamp recording exactly
// which data versions it was derived from.
//
// Three mechanisms make hot-range serving O(1):
//
//   - Self-validating stamps. Every entry carries a Stamp: the version
//     counters its producer read — the epoch of each data shard the
//     proof consulted, of any relation, and of a certified filter — each
//     with the value it held then. A lookup reloads those counters
//     (atomic loads, no locks, no lookup by name) and serves only while
//     every one still holds its recorded value. Updates invalidate by
//     bumping the epochs of the shards they touch — cached ranges that
//     do not intersect the update keep serving; there is no global
//     flush. Freshness summaries are deliberately NOT part of the
//     stamp: cached entries hold the summary-free answer core, and the
//     serving layer attaches the per-client summary delta at response
//     time — a ρ-period close must not flush every resident answer.
//
//   - Singleflight coalescing. Concurrent requests for the same missing
//     key elect one builder; everyone else blocks on its flight and
//     shares the result, so N identical cold requests cost one tree
//     walk. A coalesced waiter re-validates the stamp before using the
//     result: if an intersecting update landed while the flight was in
//     progress, the waiter rebuilds instead of serving stale bytes.
//
//   - Second-request, frequency-biased, size-bounded admission. A built
//     answer becomes resident only once its key has been asked for
//     twice: coalesced waiters joined its flight, its fingerprint is in
//     the shard's doorkeeper (a direct-mapped table of recently built
//     keys, TinyLFU's), or it replaces an entry just dropped as stale. A
//     once-seen answer serves its callers and returns its buffer on the
//     last Release, so ranges that never repeat pin nothing. Each cache
//     shard keeps an LRU list with per-entry hit counters; eviction
//     scans a small window at the cold tail and removes the
//     least-frequently-hit entry (aging the survivors), and a newcomer
//     whose observed demand (1 + coalesced waiters) is below the
//     victim's kept frequency is not admitted, so a scan of cold ranges
//     cannot wash out the hot head. Each admission also reclaims every
//     entry among the victimScan coldest whose stamp has gone stale, so
//     invalidated entries nobody requests again do not sit on their
//     bytes until the budget is reached; a reclaimed key keeps its
//     doorkeeper ticket, so its next rebuild is admitted at once.
//
// Entries are reference counted: the cache holds one reference while an
// entry is resident, and every lookup hands the caller another. When
// the last reference drops, the entry's optional Free hook returns the
// wire buffer to its pool. A built entry belongs to the flight that
// built it — its builder and coalesced waiters — and never becomes
// resident: admission keeps an exactly sized copy without a Free hook,
// charged by the answer's length, so what stays resident is only ever
// a live answer and its bytes, never a pool's slack, and a reader can
// never race a recycle.
//
// The package is deliberately ignorant of the answer type (Value is
// opaque) and of what its counters version (a Stamp holds bare
// *atomic.Uint64s), so it has no dependency on the core protocol
// packages.
package anscache

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Key identifies a cached answer: the requested closed range [Lo, Hi]
// after normalization. Normalization is ordering validation only — the
// user-side verifier matches an answer against the literal requested
// range (chain.Answer.Lo/Hi are covered by the proof-of-completeness
// check), so two distinct requested ranges can never share an entry
// even when they select the same records. The win comes from exact
// repetition, which is what a zipfian hot head produces.
//
// Plan is the planner's canonical plan encoding in a plan cache, and
// empty for a bare scan of the cache's own relation (a relation's answer
// cache is keyed by the range alone). Two requests share an entry only
// when their plan bytes are identical — the same σ/π/⋈ over the same
// relations.
type Key struct {
	Lo, Hi int64
	Plan   string
}

// Stamp records the versions of everything an answer was derived from:
// each version counter its producer read (a data shard's epoch, a
// certified filter's), with the value it held under the read lock the
// producer used the versioned data under. Writers bump a counter under
// the matching write lock, so a stamp whose counters all still hold their
// values proves its answer current. Summary publication does not stamp
// entries: an update to an answered record bumps that record's shard
// epoch before any summary marking it newer can be published, so a
// data-current entry never contradicts a summary served beside it. The
// zero Stamp is always valid.
type Stamp struct {
	reads []reading
}

type reading struct {
	ctr *atomic.Uint64
	at  uint64
}

// Read records c at its current value. A counter read before keeps the
// LOWER of its readings (see Merge).
func (s *Stamp) Read(c *atomic.Uint64) { s.note(c, c.Load()) }

// Merge adds o's readings to s. A counter both read keeps the LOWER value:
// a stamp must never claim a version newer than the oldest data actually
// read, or an update landing between the two reads would be masked — so a
// stamp merged from readings either side of a bump never validates.
func (s *Stamp) Merge(o Stamp) {
	for _, r := range o.reads {
		s.note(r.ctr, r.at)
	}
}

// note records c at value at, keeping the lower of two readings. The
// search runs from the newest reading: a producer tends to re-read the
// counter it read last.
func (s *Stamp) note(c *atomic.Uint64, at uint64) {
	for i := len(s.reads) - 1; i >= 0; i-- {
		if r := &s.reads[i]; r.ctr == c {
			r.at = min(r.at, at)
			return
		}
	}
	s.reads = append(s.reads, reading{c, at})
}

// Len reports how many distinct counters the stamp holds.
func (s *Stamp) Len() int { return len(s.reads) }

// Valid reports whether every counter the stamp read still holds the
// value it was read at: atomic loads, no lock.
func (s *Stamp) Valid() bool {
	for _, r := range s.reads {
		if r.ctr.Load() != r.at {
			return false
		}
	}
	return true
}

// Entry is one materialized answer. Value, Wire and Stamp are written
// by the builder before publication and read-only afterwards; Wire in
// particular may be served zero-copy to many readers at once.
type Entry struct {
	Key   Key
	Value any    // the materialized answer (opaque to the cache)
	Wire  []byte // pre-encoded wire bytes, written once at build time
	Stamp Stamp
	// Free, when set, recycles Wire (e.g. wire.PutBuffer) once the last
	// reference is released. A built entry serves its flight only; the
	// resident entry admission makes of it is a copy with no Free.
	Free func([]byte)

	refs atomic.Int64  // cache residency + outstanding readers
	hits atomic.Uint64 // demand: 1 + waiters at build, +1 per hit, halved by aging
	size int64

	// LRU links, guarded by the owning cache shard's mutex.
	prev, next *Entry
}

// Release drops the caller's reference. Every entry returned by Get or
// Do must be released exactly once, after which the caller must not
// touch Wire again (only the wire buffer is recycled; Value is an
// immutable materialized answer and stays usable for as long as the
// caller holds a pointer to it).
func (e *Entry) Release() {
	if e.refs.Add(-1) == 0 && e.Free != nil {
		e.Free(e.Wire)
		e.Wire = nil
	}
}

// Outcome classifies how a Do call was served.
type Outcome uint8

const (
	// Hit means a resident, stamp-current entry was served.
	Hit Outcome = iota
	// Built means this call ran the build function itself.
	Built
	// Coalesced means the call joined another caller's in-flight build
	// and shared its result.
	Coalesced
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Built:
		return "built"
	case Coalesced:
		return "coalesced"
	}
	return "unknown"
}

// Stats are the cache's monotonic counters (read with Stats()).
type Stats struct {
	Hits          uint64 // lookups served from a resident entry
	Built         uint64 // build functions executed
	Coalesced     uint64 // callers who shared another's flight
	Invalidations uint64 // entries dropped on a stale stamp
	Evictions     uint64 // entries dropped by the size bound
	Rejected      uint64 // built entries not made resident: first sightings, the frequency bias, oversize
	Retries       uint64 // coalesced results discarded as stale, rebuilt
	Bytes         int64  // resident bytes charged, bookkeeping included (point-in-time, not monotonic)
	Entries       int64  // resident entries (point-in-time)
}

// flight is one in-progress build other callers can latch onto.
type flight struct {
	done     chan struct{}
	entry    *Entry // nil on error; pre-acquired for every waiter
	err      error
	waiters  int64
	replaces bool // the build replaces a resident entry lookup dropped as stale
}

// cshard is one lock domain of the cache: its map, flights, LRU and
// doorkeeper.
type cshard struct {
	mu      sync.Mutex
	entries map[Key]*Entry
	flights map[Key]*flight
	head    *Entry // most recently used
	tail    *Entry // least recently used
	bytes   int64
	max     int64
	door    [doorSlots]uint64 // fingerprints of recently built keys, direct-mapped
}

// Cache is the concurrent answer cache. See the package comment.
type Cache struct {
	shards []cshard
	mask   uint64

	hits          atomic.Uint64
	built         atomic.Uint64
	coalesced     atomic.Uint64
	invalidations atomic.Uint64
	evictions     atomic.Uint64
	rejected      atomic.Uint64
	retries       atomic.Uint64
}

// Option configures a Cache.
type Option func(*config)

type config struct {
	maxBytes int64
	shards   int
}

// DefaultMaxBytes bounds the resident wire bytes unless overridden.
const DefaultMaxBytes = 256 << 20

// defaultShards is the lock-domain count; a small power of two is
// plenty because the critical sections are map-and-list operations.
const defaultShards = 16

// victimScan is how many cold-tail entries an eviction examines before
// removing the least-frequently-hit one.
const victimScan = 4

// entryOverhead approximates an entry's bookkeeping bytes beyond Wire,
// so size accounting cannot be gamed by tiny answers.
const entryOverhead = 160

// doorSlots is the doorkeeper's size per cache shard: 8 KiB of key
// fingerprints, 128 KiB for the default shard count. A build whose slot
// another key has since overwritten counts as a first sighting again,
// which is how old sightings age out.
const doorSlots = 1024

// WithMaxBytes bounds the total resident wire bytes (default
// DefaultMaxBytes; minimum one shard's worth).
func WithMaxBytes(n int64) Option {
	return func(c *config) {
		if n > 0 {
			c.maxBytes = n
		}
	}
}

// WithShards sets the lock-domain count (rounded up to a power of two).
func WithShards(n int) Option {
	return func(c *config) {
		if n >= 1 {
			c.shards = n
		}
	}
}

// New creates a cache.
func New(opts ...Option) *Cache {
	cfg := config{maxBytes: DefaultMaxBytes, shards: defaultShards}
	for _, o := range opts {
		o(&cfg)
	}
	n := 1
	for n < cfg.shards {
		n *= 2
	}
	c := &Cache{shards: make([]cshard, n), mask: uint64(n - 1)}
	per := cfg.maxBytes / int64(n)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = cshard{
			entries: make(map[Key]*Entry),
			flights: make(map[Key]*flight),
			max:     per,
		}
	}
	return c
}

// hash is fmix64 of Lo, Hi and the plan bytes: its low bits pick the
// key's lock domain, its high bits its doorkeeper slot, and the word with
// its lowest bit set is its fingerprint there.
func hash(key Key) uint64 {
	h := uint64(key.Lo)*0x9e3779b97f4a7c15 ^ uint64(key.Hi)
	for i := 0; i < len(key.Plan); i++ {
		h = h*0x100000001b3 ^ uint64(key.Plan[i])
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// shardOf maps a key onto its lock domain.
func (c *Cache) shardOf(key Key) *cshard {
	return &c.shards[hash(key)&c.mask]
}

// seen records h's fingerprint in the doorkeeper and reports whether it
// was already there. The fingerprint is never 0, the value of an empty
// slot (fmix64 maps the range [0,0] to 0). Caller holds sh.mu.
func (sh *cshard) seen(h uint64) bool {
	slot := &sh.door[(h>>32)&(doorSlots-1)]
	if fp := h | 1; *slot != fp {
		*slot = fp
		return false
	}
	return true
}

// lookup checks the resident entry for key under sh.mu (held by the
// caller): on a current stamp it touches the LRU, acquires a reader
// reference and returns (e, true, nil); a resident-but-stale entry is
// dropped and counted, and returned as stale so the caller can release
// the residency reference once it unlocks. Shared by Get and Do so the
// two paths cannot drift.
func (c *Cache) lookup(sh *cshard, key Key) (e *Entry, ok bool, stale *Entry) {
	e = sh.entries[key]
	if e == nil {
		return nil, false, nil
	}
	if !e.Stamp.Valid() {
		sh.drop(e)
		c.invalidations.Add(1)
		return nil, false, e
	}
	sh.touch(e)
	e.refs.Add(1)
	return e, true, nil
}

// Get returns the resident, stamp-current entry for key, acquiring a
// reference the caller must Release. A resident-but-stale entry is
// dropped (counted as an invalidation) and reported as a miss.
func (c *Cache) Get(key Key) (*Entry, bool) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	e, ok, stale := c.lookup(sh, key)
	sh.mu.Unlock()
	if stale != nil {
		stale.Release() // the cache's residency reference
	}
	if !ok {
		return nil, false
	}
	e.hits.Add(1)
	c.hits.Add(1)
	return e, true
}

// Do serves key through the full coalescing path: a current resident
// entry wins immediately; otherwise one caller runs build while
// concurrent callers for the same key wait and share the result. The
// returned entry is acquired for the caller (Release it exactly once).
//
// build must return an entry whose Stamp was read under the same locks
// as its data. A coalesced waiter double-checks that stamp when the
// flight lands: if an intersecting update invalidated it mid-flight the
// waiter retries with a fresh build rather than serve a stale answer,
// so Do never returns bytes older than an update that completed before
// Do was called.
func (c *Cache) Do(key Key, build func() (*Entry, error)) (*Entry, Outcome, error) {
	h := hash(key)
	sh := &c.shards[h&c.mask]
	for {
		sh.mu.Lock()
		e, ok, stale := c.lookup(sh, key)
		if ok {
			sh.mu.Unlock()
			e.hits.Add(1)
			c.hits.Add(1)
			return e, Hit, nil
		}
		if f := sh.flights[key]; f != nil {
			f.waiters++
			sh.mu.Unlock()
			if stale != nil {
				stale.Release()
			}
			<-f.done
			if f.err != nil {
				return nil, Coalesced, f.err
			}
			// The builder pre-acquired a reference for every waiter and
			// counted the whole flight's demand into the resident copy.
			if f.entry.Stamp.Valid() {
				c.coalesced.Add(1)
				return f.entry, Coalesced, nil
			}
			f.entry.Release()
			c.retries.Add(1)
			continue
		}
		f := &flight{done: make(chan struct{}), replaces: stale != nil}
		sh.flights[key] = f
		sh.mu.Unlock()
		if stale != nil {
			stale.Release()
		}

		c.built.Add(1)
		built, err := c.runBuild(sh, key, h, f, build)
		if err != nil {
			return nil, Built, err
		}
		return built, Built, nil
	}
}

// runBuild executes one flight's build function and publishes the
// result. The publication runs in a defer so that even a panicking
// build (e.g. a bug in the query pipeline recovered further up the
// stack) resolves the flight — waiters get an error instead of blocking
// forever on a dead flight — before the panic is re-raised.
func (c *Cache) runBuild(sh *cshard, key Key, h uint64, f *flight, build func() (*Entry, error)) (e *Entry, err error) {
	defer func() {
		r := recover()
		if r != nil {
			e, err = nil, fmt.Errorf("anscache: build for [%d,%d] panicked: %v", key.Lo, key.Hi, r)
		}
		if e == nil && err == nil {
			// A (nil, nil) build would nil-panic below while sh.mu is
			// held and before the flight resolves — turning one broken
			// builder into a wedged cache shard. Fail the flight instead.
			err = fmt.Errorf("anscache: build for [%d,%d] returned no entry", key.Lo, key.Hi)
		}
		sh.mu.Lock()
		delete(sh.flights, key)
		f.entry, f.err = e, err
		if err == nil {
			// One reference per waiter, one for the builder; the resident
			// copy (if admitted) is an entry of its own. Demand observed
			// during the flight seeds the copy's frequency counter, which
			// the eviction bias reads.
			demand := uint64(1 + f.waiters)
			e.refs.Add(f.waiters + 1)
			// Only a second request earns residency; a first sighting
			// serves its flight and frees its buffer on the last Release,
			// as every built entry with a Free hook does.
			// seen goes first: it records this sighting either way.
			again := sh.seen(h) || demand > 1 || f.replaces
			// Don't evict warm entries for an entry an intersecting
			// update already invalidated mid-flight — the next lookup
			// would just drop it again. The builder and waiters still
			// get their (consistent-snapshot) result.
			if e.Stamp.Valid() {
				if again {
					c.admit(sh, e, demand)
				} else {
					c.rejected.Add(1)
				}
			}
		}
		sh.mu.Unlock()
		close(f.done)
		if r != nil {
			panic(r)
		}
	}()
	return build()
}

// admit inserts e if the frequency-biased size bound allows. No
// resident entry for e.Key can exist here: a flight is only registered
// when the key is absent (or just dropped as stale) under this same
// mutex, and the flight map keeps every other inserter out until this
// publication completes. The eviction plan is computed in full before
// any entry is dropped: admission either fully succeeds or leaves the
// live resident set untouched, so a large cold newcomer cannot erode the
// warm tail and then be rejected anyway.
//
// A built entry stays with its flight: what becomes resident is a copy of
// it sized exactly to its answer, with no Free, charged by that length,
// and the built buffer goes back to its pool (if it has one) on the
// flight's last Release. Only admissions pay the copy. Caller holds sh.mu.
func (c *Cache) admit(sh *cshard, e *Entry, demand uint64) {
	size := int64(len(e.Wire)+len(e.Key.Plan)) + entryOverhead
	if size > sh.max {
		c.rejected.Add(1)
		return
	}
	c.reclaim(sh)
	need := sh.bytes + size - sh.max
	var victims []*Entry
	for need > 0 {
		v := sh.victim(victims)
		// Admission bias: keep any cold-tail entry that is demonstrably
		// hotter than the newcomer.
		if v == nil || v.hits.Load() > demand {
			c.rejected.Add(1)
			return
		}
		victims = append(victims, v)
		need -= v.size
	}
	for _, v := range victims {
		sh.drop(v)
		c.evictions.Add(1)
		v.Release()
	}
	if len(victims) > 0 {
		sh.age() // eviction pressure decays ancient popularity
	}
	exact := make([]byte, len(e.Wire)) // append would round up to a size class
	copy(exact, e.Wire)
	e = &Entry{Key: e.Key, Value: e.Value, Wire: exact, Stamp: e.Stamp, size: size}
	e.hits.Store(demand)
	e.refs.Store(1) // residency reference
	sh.entries[e.Key] = e
	sh.pushFront(e)
	sh.bytes += e.size
}

// reclaim drops every entry among the victimScan coldest whose stamp has
// gone stale: it can never be served again, and left alone it would hold
// its bytes until the size bound is reached and, once popular, out-vote
// live newcomers in the admission bias. Its key keeps a doorkeeper
// ticket, so the rebuild that follows an invalidation of a hot range is
// admitted at once. Caller holds sh.mu.
func (c *Cache) reclaim(sh *cshard) {
	scanned := 0
	for e := sh.tail; e != nil && scanned < victimScan; scanned++ {
		prev := e.prev
		if !e.Stamp.Valid() {
			sh.drop(e)
			sh.seen(hash(e.Key))
			c.invalidations.Add(1)
			e.Release()
		}
		e = prev
	}
}

// victim scans up to victimScan cold-tail entries not already chosen
// and returns the least-frequently-hit one (nil when the list is
// exhausted). Caller holds sh.mu.
func (sh *cshard) victim(chosen []*Entry) *Entry {
	isChosen := func(e *Entry) bool {
		for _, v := range chosen {
			if v == e {
				return true
			}
		}
		return false
	}
	var best *Entry
	var bestHits uint64
	scanned := 0
	for e := sh.tail; e != nil && scanned < victimScan; e = e.prev {
		if isChosen(e) {
			continue
		}
		if h := e.hits.Load(); best == nil || h < bestHits {
			best, bestHits = e, h
		}
		scanned++
	}
	return best
}

// age halves the hit counters of up to victimScan cold-tail survivors,
// so popularity earned long ago decays under eviction pressure. Caller
// holds sh.mu.
func (sh *cshard) age() {
	scanned := 0
	for e := sh.tail; e != nil && scanned < victimScan; e = e.prev {
		e.hits.Store(e.hits.Load() / 2)
		scanned++
	}
}

// Clear drops every resident entry, releasing the cache's residency
// references; a reader still holding an entry keeps its bytes until it
// releases them. In-flight builds are unaffected (their publications
// will re-admit). Use when detaching a cache for good.
func (c *Cache) Clear() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		dropped := make([]*Entry, 0, len(sh.entries))
		for _, e := range sh.entries {
			dropped = append(dropped, e)
		}
		for _, e := range dropped {
			sh.drop(e)
		}
		sh.mu.Unlock()
		for _, e := range dropped {
			e.Release()
		}
	}
}

// Len reports the resident entry count.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:          c.hits.Load(),
		Built:         c.built.Load(),
		Coalesced:     c.coalesced.Load(),
		Invalidations: c.invalidations.Load(),
		Evictions:     c.evictions.Load(),
		Rejected:      c.rejected.Load(),
		Retries:       c.retries.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Bytes += sh.bytes
		s.Entries += int64(len(sh.entries))
		sh.mu.Unlock()
	}
	return s
}

// ---- intrusive LRU (all under sh.mu) ----

func (sh *cshard) pushFront(e *Entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *cshard) unlink(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *cshard) touch(e *Entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// drop removes e from the map, list and size accounting. The caller is
// responsible for releasing the residency reference.
func (sh *cshard) drop(e *Entry) {
	delete(sh.entries, e.Key)
	sh.unlink(e)
	sh.bytes -= e.size
}
