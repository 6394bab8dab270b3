package core

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"
	"sync/atomic"

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
// Rule: VerifyJobs names every claim by SHA-256 over
// len‖agg‖(len‖digest)*, drops the claims whose name the memo holds (and
// repeats inside the batch), sends the rest to the scheme, and admits
// their names only after the scheme returned nil for all of them.
//
// Soundness. (1) The name is a collision-resistant hash of everything
// the equation reads besides the key, and the memo is per Verifier and
// therefore per key: equal names are the same claim. (2) A name enters
// only as a member of a batch whose equation held — the same evidence on
// which the session accepted the claim the first time, under the set
// semantics sigagg.BatchVerifier documents: the batch proves that the
// union of its digests is signed by the union of its aggregates, so by
// aggregate unforgeability every digest of every admitted claim was
// signed by the owner. (3) A hit therefore repeats an acceptance the
// session already made on full evidence; it can never create one. A
// failed batch admits nothing, and eviction only forgets: a forgotten
// claim is verified in full.
//
// What the memo does not cover: anything but the signature equation. The
// digests that name a claim are recomputed from the received bytes on
// every answer, and the structural checks, summary ingestion and the
// freshness check run on every answer, so a tampered record, aggregate,
// boundary or ordering is a different name (or fails before it has one),
// and a replay of a once-verified, since-superseded version still dies in
// CheckFresh. chain.Verify on the scheme stays the memo-free oracle.
//
// The table is flat and pointer-free (the collector never scans it),
// allocated on the first admit — a verifier that never closes a claim
// pays nothing — and set-associative: a name lives in one of the
// memoWays slots of the set its first bytes select, and a full set
// replaces round-robin. 8,192 names, 258 KB per verifier that uses it:
// sized from the benchmark's sessions (DESIGN.md, "Claim memo", has the
// counts per workload and why plan_join's conflict evictions did not buy
// a doubling).
const (
	memoSets = 2048 // a power of two
	memoWays = 4
)

type claimKey [sha256.Size]byte

// set is where k lives. The name is a SHA-256, uniform in every byte.
func (k *claimKey) set() uint32 {
	return binary.LittleEndian.Uint32(k[:4]) & (memoSets - 1)
}

// memoTable holds the names. admits[s] counts set s's admissions — below
// memoWays it is also the number of slots in use, from memoWays on it
// cycles in [memoWays, 2·memoWays) and its low bits pick the victim — so
// an empty slot is never compared and no key value is reserved.
type memoTable struct {
	keys   [memoSets][memoWays]claimKey
	admits [memoSets]uint8
}

func (t *memoTable) holds(k *claimKey) bool {
	s := k.set()
	for w := range min(int(t.admits[s]), memoWays) {
		if t.keys[s][w] == *k {
			return true
		}
	}
	return false
}

func (t *memoTable) admit(k *claimKey) {
	if t.holds(k) { // two batches closed the same claim concurrently
		return
	}
	s := k.set()
	t.keys[s][t.admits[s]%memoWays] = *k
	if t.admits[s]++; t.admits[s] == 2*memoWays {
		t.admits[s] = memoWays
	}
}

// ClaimStats are a Verifier's claim-memo counters. Every claim handed to
// VerifyJobs is either a hit — the memo held it, or an identical claim
// stands earlier in the same batch: no curve arithmetic is done on its
// behalf — or a miss, which goes to the scheme. BatchesWithoutEC counts
// the VerifyJobs calls all of whose claims hit: the client-side
// counterpart of the server's ServedHit.
type ClaimStats struct {
	ClaimHits        uint64
	ClaimMisses      uint64
	BatchesWithoutEC uint64
}

// claimMemo is the table, its lock and the counters.
type claimMemo struct {
	mu    sync.Mutex
	table *memoTable // nil until the first admit

	hits, misses, batchesWithoutEC atomic.Uint64

	// One call's working state, taken by Swap so that concurrent
	// VerifyJobs calls never share it; the loser allocates its own.
	scratch atomic.Pointer[claimScratch]
}

// claimScratch is VerifyJobs' per-call state, kept across calls so that
// naming a batch allocates nothing.
type claimScratch struct {
	h    hash.Hash
	lenb [8]byte
	keys []claimKey            // keys[i] names jobs[i]
	miss []int32               // the jobs the memo does not hold, repeats dropped
	live []sigagg.VerifyJob    // jobs[miss[n]]: what the scheme is handed
	seen map[claimKey]struct{} // in-batch repeats among the misses
}

// nameJobs fills sc.keys. No lock is held: this is the hashing.
func (sc *claimScratch) nameJobs(jobs []sigagg.VerifyJob) {
	if sc.h == nil {
		sc.h = sha256.New()
		sc.seen = make(map[claimKey]struct{})
	}
	if cap(sc.keys) < len(jobs) {
		sc.keys = make([]claimKey, len(jobs))
	}
	sc.keys = sc.keys[:len(jobs)]
	for i := range jobs {
		sc.h.Reset()
		sc.write(jobs[i].Agg)
		for _, d := range jobs[i].Digests {
			sc.write(d)
		}
		sc.h.Sum(sc.keys[i][:0])
	}
}

// write feeds len‖b to the running hash.
func (sc *claimScratch) write(b []byte) {
	binary.BigEndian.PutUint64(sc.lenb[:], uint64(len(b)))
	sc.h.Write(sc.lenb[:])
	sc.h.Write(b)
}

// open returns the claims of jobs that still need the scheme: not held by
// the memo and not a repeat of an earlier claim of the batch. The result
// and sc.miss are valid until the scratch is put back.
func (m *claimMemo) open(sc *claimScratch, jobs []sigagg.VerifyJob) []sigagg.VerifyJob {
	sc.nameJobs(jobs)
	sc.live, sc.miss = sc.live[:0], sc.miss[:0]
	m.mu.Lock()
	for i := range jobs {
		if t := m.table; t == nil || !t.holds(&sc.keys[i]) {
			sc.miss = append(sc.miss, int32(i))
		}
	}
	m.mu.Unlock()
	if len(sc.miss) > 1 {
		clear(sc.seen)
		first := sc.miss[:0]
		for _, i := range sc.miss {
			if _, dup := sc.seen[sc.keys[i]]; !dup {
				sc.seen[sc.keys[i]] = struct{}{}
				first = append(first, i)
			}
		}
		sc.miss = first
	}
	for _, i := range sc.miss {
		sc.live = append(sc.live, jobs[i])
	}
	m.hits.Add(uint64(len(jobs) - len(sc.live)))
	m.misses.Add(uint64(len(sc.live)))
	if len(sc.live) == 0 {
		m.batchesWithoutEC.Add(1)
	}
	return sc.live
}

// admit records that every claim open returned has been closed by the
// scheme. Callers reach it only after sigagg.Pool.VerifyAll returned nil.
func (m *claimMemo) admit(sc *claimScratch) {
	m.mu.Lock()
	if m.table == nil {
		m.table = new(memoTable)
	}
	for _, i := range sc.miss {
		m.table.admit(&sc.keys[i])
	}
	m.mu.Unlock()
}

func (m *claimMemo) takeScratch() *claimScratch {
	if sc := m.scratch.Swap(nil); sc != nil {
		return sc
	}
	return new(claimScratch)
}

// putScratch drops the batch's borrowed job slices before the scratch is
// kept, so an idle verifier does not pin its last answers.
func (m *claimMemo) putScratch(sc *claimScratch) {
	clear(sc.live)
	m.scratch.Store(sc)
}
