package core

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"authdb/internal/chain"
	"authdb/internal/projection"
	"authdb/internal/sigagg"
)

// The claim memo. A signature claim is one sigagg.VerifyJob: "this
// aggregate covers exactly these digests under my key". A session sees
// the same claims over and over — a hot range re-fetched, the match and
// boundary proofs every plan over the same inner keys carries — and a
// claim this verifier has closed stays closed: the scheme's equation is a
// pure function of (key, aggregate, digests), so checking it again proves
// nothing the first check did not.
//
// Two names. A claim's digest name is SHA-256 over
// len‖agg‖(len‖digest)*. A chain or projection answer's content name is
// a GMAC tag (NIST SP 800-38D: AES-128-GCM sealing nothing) over its
// identity (chain.(*Answer).AppendIdentity,
// projection.(*Answer).AppendIdentity: an injective serialization of
// everything its digests and aggregate read), under a key the verifier
// draws for itself and a nonce from its counter: the nonce's 8 bytes and
// the tag's 16. The memo is keyed by a salted fingerprint of the
// aggregate and holds one name per entry, with a bit saying which kind.
// Rule, per claim of a CheckClaims batch:
//
//   - the entry under the claim's fingerprint holds a content name, and
//     the claim's identity tagged under that name's nonce is its tag: a
//     content hit, closed without computing one digest;
//   - otherwise the claim's digests are computed and it is digest-named;
//     the entry holds that digest name: a digest hit; else a miss (and a
//     repeat of an earlier miss of the batch is dropped), sent to the
//     scheme;
//   - once every key of the batch has closed (admit), each miss's digest
//     name is stored under its fingerprint, and each digest hit that has a
//     content form renames its entry — only while the entry still holds
//     the digest name it matched — by its content name, tagged under a
//     nonce of its own: no nonce tags two names.
//
// So a claim is digest-named when it is first closed and content-named
// from its second sighting on; a claim seen once (cold_scan's) pays what
// it paid before, plus one fingerprint probe, and a repeated one one
// GMAC over its bytes instead of one SHA-256 per record or attribute and
// a naming pass. Partition certifications, one small digest each, stay
// digest-named.
//
// Soundness. (1) A digest name is a collision-resistant hash of
// everything the equation reads besides the key, and the memo is per
// Verifier and therefore per key: equal digest names are the same claim.
// A content name is a MAC of the bytes the digests are a function of,
// under a key the server never sees, and a name never leaves the
// process: an identity other than the one tagged is recognised with
// probability at most q·(⌈ℓ/16⌉+1)/2¹²⁸ over q attempts of ℓ bytes, plus
// AES's advantage as a PRP (GMAC's unforgeability). The fingerprint only
// picks the entry to compare: a fingerprint collision or a replayed
// aggregate over other digests or content is a name that does not match,
// a miss, never an acceptance. (2) A digest name enters only as a member
// of a batch whose equation held — the same evidence on which the session
// accepted the claim the first time, under the set semantics
// sigagg.Scheme.VerifyJobs documents: the batch proves that the union of
// its digests is signed by the union of its aggregates, so by aggregate
// unforgeability every digest of every admitted claim was signed by the
// owner. A content name enters only in place of a digest name that the
// same claim's recomputed digests matched, and only once every key of its
// batch closed. (3) A hit therefore repeats an acceptance the session
// already made on full evidence; it can never create one. A failed batch admits and renames nothing, and eviction
// only forgets: a forgotten claim is verified in full.
//
// What the memo does not cover: anything but the signature equation. The
// structural checks (chain.(*Answer).CheckStructure runs before either
// name is computed), summary ingestion and the freshness check run on
// every answer, so a tampered record, aggregate, boundary or ordering is
// not recognised by the honest claim's name (or fails before it is
// compared), and a replay of a
// once-verified, since-superseded version still dies in CheckFresh.
// chain.Verify on the scheme stays the memo-free oracle.
//
// The table is flat and pointer-free (the collector never scans it),
// allocated on the first admit — a verifier that never closes a claim
// pays nothing — and set-associative: an entry lives in one of the
// memoWays slots of the set its fingerprint selects, and a full set
// replaces round-robin. 8,192 entries of 40 bytes, 328 KB per verifier
// that uses it: sized from the benchmark's sessions (DESIGN.md, "Claim
// memo", has the counts per workload and why plan_join's conflict
// evictions did not buy a doubling).
const (
	memoSets = 2048 // a power of two
	memoWays = 4
)

// A claimKey is a name: a digest name fills it; a content name is its
// nonce (8 bytes, big-endian) and its GMAC tag (16), then zeros.
type claimKey [sha256.Size]byte

// A memoEntry is one name and its aggregate's fingerprint, whose low bit
// is replaced by the name's kind.
type memoEntry struct {
	tag  uint64
	name claimKey
}

// Name kinds: the low bit of a tag.
const (
	digestNamed  = 0
	contentNamed = 1
)

func tagOf(fp uint64, kind uint64) uint64 { return fp&^1 | kind }

// set is where fingerprint fp lives: its top bits (maphash: uniform).
func set(fp uint64) uint32 { return uint32(fp>>32) & (memoSets - 1) }

// memoTable holds the entries. admits[s] counts set s's admissions —
// below memoWays it is also the number of slots in use, from memoWays on
// it cycles in [memoWays, 2·memoWays) and its low bits pick the victim —
// so an empty slot is never compared and no tag value is reserved.
type memoTable struct {
	entries [memoSets][memoWays]memoEntry
	admits  [memoSets]uint8
}

// find returns the entry under fingerprint fp, or nil.
func (t *memoTable) find(fp uint64) *memoEntry {
	s := set(fp)
	for w := range min(int(t.admits[s]), memoWays) {
		if e := &t.entries[s][w]; e.tag&^1 == fp&^1 {
			return e
		}
	}
	return nil
}

// put stores a digest name under fp: over the entry fp already has, or
// in the set's next victim.
func (t *memoTable) put(fp uint64, name *claimKey) {
	e := t.find(fp)
	if e == nil {
		s := set(fp)
		e = &t.entries[s][t.admits[s]%memoWays]
		if t.admits[s]++; t.admits[s] == 2*memoWays {
			t.admits[s] = memoWays
		}
	}
	*e = memoEntry{tag: tagOf(fp, digestNamed), name: *name}
}

// rename replaces the digest name dname under fp by the content name
// cname. An entry that no longer holds dname — evicted, replaced, or
// renamed already by a concurrent batch — is left as it is.
func (t *memoTable) rename(fp uint64, dname, cname *claimKey) {
	if e := t.find(fp); e != nil && e.tag == tagOf(fp, digestNamed) && e.name == *dname {
		*e = memoEntry{tag: tagOf(fp, contentNamed), name: *cname}
	}
}

// ClaimStats are a Verifier's claim-memo counters. Every claim handed to
// CheckClaims is either a hit — the memo held it, or an identical claim
// stands earlier in the same batch: no curve arithmetic is done on its
// behalf — or a miss, which goes to the scheme. ContentHits are the hits
// closed by their content name, with no digest computed. BatchesWithoutEC
// counts the batches all of whose claims hit: the client-side counterpart
// of the server's ServedHit.
type ClaimStats struct {
	ClaimHits        uint64
	ClaimMisses      uint64
	ContentHits      uint64
	BatchesWithoutEC uint64
}

// claimMemo is the table, its lock, the fingerprint seed and the
// counters.
type claimMemo struct {
	mu    sync.Mutex
	table *memoTable // nil until the first admit
	seed  maphash.Seed

	gcm    cipher.AEAD   // AES-128-GCM under a key only this verifier holds
	nonces atomic.Uint64 // the last content name's nonce

	hits, misses, contentHits, batchesWithoutEC atomic.Uint64

	// One call's working state, taken by Swap so that concurrent
	// CheckClaims calls never share it; the loser allocates its own.
	scratch atomic.Pointer[claimScratch]
}

// What became of one claim of a batch.
const (
	claimMiss = iota
	claimRepeat
	claimDigestHit
	claimContentHit
)

// claimState is one claim's progress through CheckClaims.
type claimState struct {
	fp      uint64
	held    memoEntry // what the memo held under fp when the batch looked…
	found   bool      // …if anything
	outcome uint8
	dname   claimKey
	cname   claimKey // a digest hit's, for admit's rename
}

// claimScratch is CheckClaims' per-call state, kept across calls so that
// a batch of repeated claims allocates nothing.
type claimScratch struct {
	buf    []byte                // one claim's identity, or one digest name's preimage
	nonce  [12]byte              // a content tag's GCM nonce: 4 zero bytes, then the counter
	tag    [16]byte              // a content tag
	claims []claimState          // chains, then projections, then bare jobs
	jobs   []sigagg.VerifyJob    // jobs[i]: claim i's digests, once computed
	left   []*chain.Answer       // the chains no content name closed
	live   []sigagg.VerifyJob    // what the scheme is handed
	seen   map[claimKey]struct{} // in-batch repeats among the misses
}

// identity is what has a content name: *chain.Answer and
// *projection.Answer.
type identity interface{ AppendIdentity([]byte) []byte }

// newContentKey draws the memo's GMAC key.
func (m *claimMemo) newContentKey() {
	var key [16]byte
	if _, err := rand.Read(key[:]); err != nil {
		panic("core: no randomness for the claim memo's key: " + err.Error())
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	if m.gcm, err = cipher.NewGCM(block); err != nil {
		panic(err)
	}
}

// contentTag is the GMAC tag of x's identity under the memo's key and
// nonce n: AES-GCM sealing nothing, with the identity as additional data.
func (m *claimMemo) contentTag(sc *claimScratch, x identity, n uint64) []byte {
	sc.buf = x.AppendIdentity(sc.buf[:0])
	binary.BigEndian.PutUint64(sc.nonce[4:], n)
	return m.gcm.Seal(sc.tag[:0], sc.nonce[:], nil, sc.buf)
}

// contentName names x under a nonce no name has had: the nonce's 8
// bytes, then the tag's 16.
func (m *claimMemo) contentName(sc *claimScratch, x identity) (name claimKey) {
	n := m.nonces.Add(1)
	binary.BigEndian.PutUint64(name[:8], n)
	copy(name[8:], m.contentTag(sc, x, n))
	return name
}

// namedBy reports whether the content name held tags x's identity.
func (m *claimMemo) namedBy(sc *claimScratch, x identity, held *claimKey) bool {
	tag := m.contentTag(sc, x, binary.BigEndian.Uint64(held[:8]))
	return subtle.ConstantTimeCompare(tag, held[8:8+len(sc.tag)]) == 1
}

// digestName is SHA-256 over len‖agg‖(len‖digest)*.
func (sc *claimScratch) digestName(j *sigagg.VerifyJob) claimKey {
	b := binary.BigEndian.AppendUint64(sc.buf[:0], uint64(len(j.Agg)))
	b = append(b, j.Agg...)
	for _, d := range j.Digests {
		b = binary.BigEndian.AppendUint64(b, uint64(len(d)))
		b = append(b, d...)
	}
	sc.buf = b
	return sha256.Sum256(b)
}

// check runs the rule above on one batch up to the scheme: it fills
// sc.claims and returns what is left for the scheme — the misses, repeats
// dropped — valid until the scratch is put back.
func (m *claimMemo) check(sc *claimScratch, chains []*chain.Answer, projs []*projection.Answer,
	jobs []sigagg.VerifyJob, par int) ([]sigagg.VerifyJob, error) {

	n, np := len(chains), len(chains)+len(projs)
	total := np + len(jobs)
	if cap(sc.claims) < total {
		sc.claims = make([]claimState, total)
		sc.jobs = make([]sigagg.VerifyJob, total)
	}
	sc.claims, sc.jobs = sc.claims[:total], sc.jobs[:total]
	for i, a := range chains {
		sc.claims[i] = claimState{fp: maphash.Bytes(m.seed, a.Agg)}
	}
	for i, p := range projs {
		sc.claims[n+i] = claimState{fp: maphash.Bytes(m.seed, p.Agg)}
	}
	for i := range jobs {
		sc.claims[np+i] = claimState{fp: maphash.Bytes(m.seed, jobs[i].Agg)}
	}
	m.mu.Lock()
	if t := m.table; t != nil {
		for i := range sc.claims {
			if e := t.find(sc.claims[i].fp); e != nil {
				sc.claims[i].held, sc.claims[i].found = *e, true
			}
		}
	}
	m.mu.Unlock()

	// Content names first, for the claims whose entry holds one.
	contentHeld := func(c *claimState) bool { return c.found && c.held.tag&1 == contentNamed }
	sc.left = sc.left[:0]
	for i, a := range chains {
		c := &sc.claims[i]
		if contentHeld(c) {
			if err := a.CheckStructure(); err != nil {
				return nil, err
			}
			if m.namedBy(sc, a, &c.held.name) {
				c.outcome = claimContentHit
				continue
			}
		}
		sc.left = append(sc.left, a)
	}
	for i, p := range projs {
		if c := &sc.claims[n+i]; contentHeld(c) && m.namedBy(sc, p, &c.held.name) {
			c.outcome = claimContentHit
		}
	}

	// Digests for the rest (chain.Jobs runs the structural checks of the
	// chains not checked above).
	leftJobs, err := chain.Jobs(sc.left, par)
	if err != nil {
		return nil, err
	}
	k := 0
	for i := range chains {
		if sc.claims[i].outcome != claimContentHit {
			sc.jobs[i], k = leftJobs[k], k+1
		}
	}
	for i, p := range projs {
		if sc.claims[n+i].outcome == claimContentHit {
			continue
		}
		ds, err := p.Digests()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", sigagg.ErrVerify, err)
		}
		sc.jobs[n+i] = sigagg.VerifyJob{Digests: ds, Agg: p.Agg}
	}
	copy(sc.jobs[np:], jobs)

	// Digest names, hits and misses.
	sc.live = sc.live[:0]
	if sc.seen == nil {
		sc.seen = make(map[claimKey]struct{})
	}
	clear(sc.seen)
	var contentHits uint64
	for i := range sc.claims {
		c := &sc.claims[i]
		if c.outcome == claimContentHit {
			contentHits++
			continue
		}
		c.dname = sc.digestName(&sc.jobs[i])
		if c.found && c.held == (memoEntry{tag: tagOf(c.fp, digestNamed), name: c.dname}) {
			c.outcome = claimDigestHit
			switch {
			case i < n:
				c.cname = m.contentName(sc, chains[i])
			case i < np:
				c.cname = m.contentName(sc, projs[i-n])
			}
			continue
		}
		if _, dup := sc.seen[c.dname]; dup {
			c.outcome = claimRepeat
			continue
		}
		sc.seen[c.dname] = struct{}{}
		sc.live = append(sc.live, sc.jobs[i])
	}
	m.hits.Add(uint64(total - len(sc.live)))
	m.misses.Add(uint64(len(sc.live)))
	m.contentHits.Add(contentHits)
	if len(sc.live) == 0 {
		m.batchesWithoutEC.Add(1)
	}
	return sc.live, nil
}

// admit stores the batch's misses and renames its digest hits that have
// a content form (the rule above). Callers reach it only after
// sigagg.Pool.VerifyAll returned nil for what check returned, and after
// every other key of the batch closed.
func (m *claimMemo) admit(sc *claimScratch, np int) {
	m.mu.Lock()
	if m.table == nil {
		m.table = new(memoTable)
	}
	for i := range sc.claims {
		switch c := &sc.claims[i]; {
		case c.outcome == claimMiss:
			m.table.put(c.fp, &c.dname)
		case c.outcome == claimDigestHit && i < np:
			m.table.rename(c.fp, &c.dname, &c.cname)
		}
	}
	m.mu.Unlock()
}

func (m *claimMemo) takeScratch() *claimScratch {
	if sc := m.scratch.Swap(nil); sc != nil {
		return sc
	}
	return new(claimScratch)
}

// putScratch drops the batch's borrowed slices before the scratch is
// kept, so an idle verifier does not pin its last answers.
func (m *claimMemo) putScratch(sc *claimScratch) {
	clear(sc.jobs)
	clear(sc.left)
	clear(sc.live)
	m.scratch.Store(sc)
}
