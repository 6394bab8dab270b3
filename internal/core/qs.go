package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"authdb/internal/aggtree"
	"authdb/internal/anscache"
	"authdb/internal/chain"
	"authdb/internal/freshness"
	"authdb/internal/join"
	"authdb/internal/sigagg"
)

// Answer is the server's verifiable response to a range selection: the
// chained answer of §3.3 plus the certified summaries the user needs
// for freshness checking.
type Answer struct {
	Chain     *chain.Answer
	Summaries []freshness.Summary // summaries published since the oldest result signature
	// Ops is the number of aggregation operations spent building the
	// proof (the paper's §4 cost unit). With the aggregation tree this is
	// O(log n) per shard touched, never linear in the result size.
	Ops int
	// OldestSigTS is the oldest signature timestamp among the answer's
	// records (the anchor for an empty answer) — the point from which a
	// session with no summary history needs certified summaries. It is
	// server-side bookkeeping for the per-client summary delta
	// (QueryServer.SummariesTail), not part of the wire encoding: the
	// records themselves carry their timestamps.
	OldestSigTS int64
}

// VOSize reports the proof overhead shipped with the records, given the
// scheme's signature size: the chain's and every attached summary's.
func (a *Answer) VOSize(sigSize int) int {
	size := a.Chain.VOSize(sigSize)
	for i := range a.Summaries {
		size += a.Summaries[i].Size(sigSize)
	}
	return size
}

// DefaultShards is the number of key-range shards a QueryServer uses
// unless overridden with WithShards.
const DefaultShards = 8

// seedFactor scales the minimum population (seedFactor × shards) before
// the server splits its keyspace into balanced shard ranges.
const seedFactor = 4

// shard is one key-range partition of the server: one aggregation tree
// whose leaves hold ⟨key, rid, signature⟩ and, as payload, the record
// body and its sideband, guarded by one RWMutex. Queries lock the shards
// they overlap shared; updates lock the shards they touch exclusive —
// disjoint traffic proceeds in parallel.
type shard struct {
	mu   sync.RWMutex
	tree *aggtree.Tree
}

// stored is a shard tree leaf's payload: the record body and, for a
// projection-mode relation, its sideband.
type stored struct {
	rec  *Record
	side *AttrSide
}

// payload returns what a shard tree leaf stores for e.
func payload(e aggtree.Entry) *stored { return e.Payload.(*stored) }

// AttrSide is the projection-mode sideband stored next to a record: the
// attribute values at the record's certified timestamp and one owner
// signature per attribute slot (§3.4), each also held prepared so a
// projection proof folds them without decoding. Ordinary relations never
// populate it.
type AttrSide struct {
	Vals [][]byte
	Sigs []sigagg.Signature
	ops  []sigagg.Operand // Sigs, prepared
}

// leaf turns a disseminated record into its shard tree entry, filling st
// (the entry's payload) with the record body and its prepared sideband.
func (qs *QueryServer) leaf(sr *SignedRecord, st *stored) (aggtree.Entry, error) {
	st.rec = sr.Rec
	if sr.AttrVals != nil || sr.AttrSigs != nil {
		ops, err := sigagg.PrepareAll(qs.folder, sr.AttrSigs)
		if err != nil {
			return aggtree.Entry{}, fmt.Errorf("core: attribute signatures of rid %d: %w", sr.Rec.RID, err)
		}
		st.side = &AttrSide{Vals: sr.AttrVals, Sigs: sr.AttrSigs, ops: ops}
	}
	return aggtree.Entry{Key: sr.Rec.Key, RID: sr.Rec.RID, Sig: sr.Sig, Payload: st}, nil
}

// QueryServer is the untrusted server: it stores the records,
// signatures and summaries pushed by the DataAggregator and constructs
// proofs for range selections.
//
// The server is split into key-range shards, and each shard is one
// aggtree.Tree: its leaves carry ⟨key, rid, signature⟩ with the record
// body and sideband as payload — everything a proof reads, as in the
// leaves of the paper's §3.2 index. The tree finds the boundary records
// and walks the records in range, and folds the range aggregate from
// its subtree sums, so a range proof costs O(log n) aggregation
// operations per overlapped shard plus one combine per extra shard.
//
// Lock order: topo → routing → shards (ascending) → sumMu.
// The answer cache's own shard mutexes are independent leaves: the
// cache is never locked while a core lock is held (Serve's build
// callback runs outside the cache locks), and epoch stamps are plain
// atomics that impose no ordering.
type QueryServer struct {
	scheme sigagg.Scheme
	folder sigagg.Folder // scheme's decoded-operand aggregation (proof construction)
	nset   int           // configured shard count (construction only)

	// topo guards the shard boundaries: shared by every operation,
	// exclusive only during the one-off seeding that splits the
	// keyspace once enough data has arrived. seeded is written under
	// topo exclusively and read before taking it, so an update after
	// the split never waits on the queries holding topo shared.
	topo   sync.RWMutex
	bounds []int64 // ascending split keys; shard i covers keys < bounds[i]; nil = everything in shard 0
	seeded atomic.Bool
	shards []*shard

	// epochs[i] versions the data of shard i. Updates bump the epochs of
	// exactly the shards they touch while holding those shards' write
	// locks, so an answer cache entry stamped under the read locks stays
	// valid until an intersecting update lands — and no longer. The
	// slice is allocated once and never reallocated, because stamps hold
	// pointers into it: it outlives the one-off reseeding (which replaces
	// qs.shards and bumps every epoch) and every Restore.
	epochs []atomic.Uint64

	// filter is the owner-certified Bloom filter on the key attribute
	// (§3.5; nil until one is disseminated) and filterEpoch its version.
	// Apply and Restore store the pointer and then bump the epoch, under
	// routing; Filter loads them in the opposite order, so a stamp never
	// claims a newer filter than the one read beside it.
	filter      atomic.Pointer[join.FilterCert]
	filterEpoch atomic.Uint64

	// serving holds the answer-cache state when EnableAnswerCache has
	// been called (atomic so enabling races nothing).
	serving atomic.Pointer[servingState]

	// routing serializes update application and guards rid → key
	// routing (queries never touch it).
	routing sync.Mutex
	keyOf   map[uint64]int64

	sumMu     sync.RWMutex
	summaries []freshness.Summary
}

// Option configures a QueryServer.
type Option func(*QueryServer)

// WithShards sets the number of key-range shards (minimum 1).
func WithShards(n int) Option {
	return func(qs *QueryServer) {
		if n >= 1 {
			qs.nset = n
		}
	}
}

// NewQueryServer creates an empty server for the (bound) scheme.
func NewQueryServer(scheme sigagg.Scheme, opts ...Option) *QueryServer {
	qs := &QueryServer{
		scheme: scheme,
		folder: sigagg.FolderFor(scheme),
		nset:   DefaultShards,
		keyOf:  make(map[uint64]int64),
	}
	for _, o := range opts {
		o(qs)
	}
	qs.shards = make([]*shard, qs.nset)
	qs.clearShards()
	qs.epochs = make([]atomic.Uint64, qs.nset)
	return qs
}

// StampKey reads into st the epoch of the data shard that owns key. A
// planner executor stamps with it an answer that depends on key's absence
// without having scanned for it (a certified Bloom negative), so
// inserting the key invalidates the answer.
func (qs *QueryServer) StampKey(st *anscache.Stamp, key int64) {
	qs.topo.RLock()
	st.Read(&qs.epochs[qs.shardOf(key)])
	qs.topo.RUnlock()
}

// Filter returns the relation's certified filter (nil if the owner has
// disseminated none). When st is not nil the filter's epoch is read into
// it first, so the stamp never claims a newer filter than the one
// returned.
func (qs *QueryServer) Filter(st *anscache.Stamp) *join.FilterCert {
	if st != nil {
		st.Read(&qs.filterEpoch)
	}
	return qs.filter.Load()
}

// clearShards replaces every shard with an empty one. Caller holds topo
// exclusively (or is constructing the server).
func (qs *QueryServer) clearShards() {
	for i := range qs.shards {
		qs.shards[i] = &shard{tree: aggtree.New(qs.scheme)}
	}
}

// shardOf maps a key to its shard index (bounds held under topo).
func (qs *QueryServer) shardOf(key int64) int {
	if qs.bounds == nil {
		return 0
	}
	return sort.Search(len(qs.bounds), func(i int) bool { return key < qs.bounds[i] })
}

// Len returns the stored record count.
func (qs *QueryServer) Len() int {
	qs.topo.RLock()
	defer qs.topo.RUnlock()
	total := 0
	for _, sh := range qs.shards {
		sh.mu.RLock()
		total += sh.tree.Len()
		sh.mu.RUnlock()
	}
	return total
}

// Shards reports the number of key-range shards.
func (qs *QueryServer) Shards() int { return len(qs.shards) }

// Scheme returns the (bound) signature scheme the server proves under —
// what a planner executor needs to assemble projection and join proof
// sections over this relation's answers.
func (qs *QueryServer) Scheme() sigagg.Scheme { return qs.scheme }

// lockAll write-locks every shard in ascending order.
func (qs *QueryServer) lockAll() {
	for _, sh := range qs.shards {
		sh.mu.Lock()
	}
}

func (qs *QueryServer) unlockAll() {
	for _, sh := range qs.shards {
		sh.mu.Unlock()
	}
}

// maybeSeed splits the keyspace into balanced shard ranges once the
// population (stored plus incoming) is large enough, migrating any
// existing entries. One-off: afterwards the boundaries are fixed.
func (qs *QueryServer) maybeSeed(msg *UpdateMsg) error {
	if len(qs.shards) == 1 || qs.seeded.Load() {
		return nil
	}
	qs.topo.Lock()
	defer qs.topo.Unlock()
	if qs.seeded.Load() {
		return nil
	}
	entries := make([]aggtree.Entry, 0, qs.shards[0].tree.Len())
	keys := make([]int64, 0, qs.shards[0].tree.Len()+len(msg.Upserts))
	qs.shards[0].tree.Scan(func(e aggtree.Entry) bool {
		entries = append(entries, e)
		keys = append(keys, e.Key)
		return true
	})
	for _, sr := range msg.Upserts {
		keys = append(keys, sr.Rec.Key)
	}
	if len(keys) < seedFactor*len(qs.shards) {
		return nil
	}
	// Deduplicate (an update message can re-upsert stored keys) so the
	// quantiles below never repeat a split key, which would leave a
	// shard permanently empty.
	slices.Sort(keys)
	keys = slices.Compact(keys)
	if len(keys) < seedFactor*len(qs.shards) {
		return nil // too few distinct keys to split evenly yet
	}
	nb := len(qs.shards) - 1
	bounds := make([]int64, nb)
	for i := 0; i < nb; i++ {
		bounds[i] = keys[(i+1)*len(keys)/len(qs.shards)]
	}
	qs.bounds = bounds
	qs.seeded.Store(true)
	// The topology change remaps every shard: bump all epochs (under
	// the exclusive topo lock, so no query can be stamping).
	for i := range qs.epochs {
		qs.epochs[i].Add(1)
	}
	// Migrate anything already stored (routing is untouched: keys keep
	// their rids).
	qs.clearShards()
	return qs.bulkFill(entries)
}

// stageBulk turns key-sorted signed records into bulkFill's entries and
// routes their rids. Caller holds routing.
func (qs *QueryServer) stageBulk(srs []SignedRecord) ([]aggtree.Entry, error) {
	entries := make([]aggtree.Entry, len(srs))
	payloads := make([]stored, len(srs))
	for i := range srs {
		e, err := qs.leaf(&srs[i], &payloads[i])
		if err != nil {
			return nil, err
		}
		entries[i] = e
		qs.keyOf[e.RID] = e.Key
	}
	return entries, nil
}

// bulkFill distributes sorted entries across the (empty) shards,
// building each shard's tree bottom-up. Caller must hold either topo
// exclusively or all shard write locks.
func (qs *QueryServer) bulkFill(entries []aggtree.Entry) error {
	start := 0
	for i, sh := range qs.shards {
		end := len(entries)
		if i < len(qs.bounds) {
			end = start + sort.Search(len(entries)-start, func(j int) bool {
				return entries[start+j].Key >= qs.bounds[i]
			})
		}
		part := entries[start:end]
		start = end
		if len(part) == 0 {
			continue
		}
		tree, _, err := aggtree.BulkLoad(qs.scheme, part)
		if err != nil {
			return fmt.Errorf("core: shard %d bulk load: %w", i, err)
		}
		sh.tree = tree
	}
	return nil
}

// Apply ingests one dissemination message from the DataAggregator.
// Messages from the single-writer DA are serialized; queries touching
// disjoint shards proceed concurrently.
func (qs *QueryServer) Apply(msg *UpdateMsg) error {
	if fc := msg.Filter; fc != nil && (fc.PF == nil || len(fc.Sigs) != fc.PF.P()) {
		return fmt.Errorf("core: filter certificate with %d signatures does not match its partitions", len(fc.Sigs))
	}
	if err := qs.maybeSeed(msg); err != nil {
		return err
	}
	qs.topo.RLock()
	defer qs.topo.RUnlock()
	qs.routing.Lock()
	defer qs.routing.Unlock()

	if qs.bulkApply(msg) {
		return qs.applyBulk(msg)
	}

	// Plan the shard set, then write-lock it in ascending order.
	affected := map[int]bool{}
	for _, rid := range msg.Deletes {
		if key, ok := qs.keyOf[rid]; ok {
			affected[qs.shardOf(key)] = true
		}
	}
	for _, sr := range msg.Upserts {
		affected[qs.shardOf(sr.Rec.Key)] = true
		if oldKey, ok := qs.keyOf[sr.Rec.RID]; ok && oldKey != sr.Rec.Key {
			affected[qs.shardOf(oldKey)] = true
		}
	}
	ids := make([]int, 0, len(affected))
	for id := range affected {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		qs.shards[id].mu.Lock()
	}
	defer func() {
		for _, id := range ids {
			qs.shards[id].mu.Unlock()
		}
	}()
	// Invalidate cached answers over exactly the touched shards. Bumping
	// inside the write-lock critical section makes the epoch check
	// exact: any answer stamped before these locks were granted carries
	// older epochs and can never be served again.
	for _, id := range ids {
		qs.epochs[id].Add(1)
	}

	for _, rid := range msg.Deletes {
		if key, ok := qs.keyOf[rid]; ok {
			qs.shards[qs.shardOf(key)].tree.Delete(key)
			delete(qs.keyOf, rid)
		}
	}
	for i := range msg.Upserts {
		e, err := qs.leaf(&msg.Upserts[i], new(stored))
		if err != nil {
			return err
		}
		if _, _, err := qs.shards[qs.shardOf(e.Key)].tree.Upsert(e); err != nil {
			return fmt.Errorf("core: apply upsert: %w", err)
		}
		if oldKey, ok := qs.keyOf[e.RID]; ok && oldKey != e.Key {
			qs.shards[qs.shardOf(oldKey)].tree.Delete(oldKey) // the rid moved
		}
		qs.keyOf[e.RID] = e.Key
	}
	qs.appendSummary(msg.Summary)
	qs.setFilter(msg.Filter)
	return nil
}

// setFilter installs a re-certified filter, retiring every cached answer
// built from the one before.
//
//authlint:locked the caller (Apply) holds routing
func (qs *QueryServer) setFilter(fc *join.FilterCert) {
	if fc != nil {
		qs.filter.Store(fc)
		qs.filterEpoch.Add(1)
	}
}

// appendSummary installs a certified summary if it advances the stream.
// Summaries re-delivered out of sequence — a crash-recovery replay
// whose log tail overlaps the snapshot, or any at-least-once
// dissemination channel — are dropped by sequence number: appending one
// twice would hand every later client a stream that fails the
// checker's contiguity test.
func (qs *QueryServer) appendSummary(s *freshness.Summary) {
	if s == nil {
		return
	}
	qs.sumMu.Lock()
	if n := len(qs.summaries); n == 0 || s.Seq > qs.summaries[n-1].Seq {
		qs.summaries = append(qs.summaries, *s)
	}
	qs.sumMu.Unlock()
}

// bulkApply reports whether msg can take the bottom-up build path: the
// server is empty and the message is a pure, sorted load (what DA.Load
// produces).
func (qs *QueryServer) bulkApply(msg *UpdateMsg) bool {
	if len(msg.Deletes) > 0 || len(msg.Upserts) < 2 || len(qs.keyOf) > 0 {
		return false
	}
	for i := 1; i < len(msg.Upserts); i++ {
		if msg.Upserts[i].Rec.Key <= msg.Upserts[i-1].Rec.Key {
			return false
		}
	}
	return true
}

// applyBulk loads a sorted initial population bottom-up: Θ(n) work and
// Θ(n) aggregation operations instead of n incremental O(log n)
// insertions. Caller holds topo (shared) and routing.
func (qs *QueryServer) applyBulk(msg *UpdateMsg) error {
	qs.lockAll()
	defer qs.unlockAll()
	entries, err := qs.stageBulk(msg.Upserts)
	if err != nil {
		return err
	}
	if err := qs.bulkFill(entries); err != nil {
		return err
	}
	for i := range qs.epochs {
		qs.epochs[i].Add(1)
	}
	qs.appendSummary(msg.Summary)
	qs.setFilter(msg.Filter)
	return nil
}
