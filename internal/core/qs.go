package core

import (
	"fmt"
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
	Chain *chain.Answer
	// Summaries are the summaries published since the oldest result
	// signature. Only the pinned Query (benchpin.go) fills them: every
	// other answer is built summary-free, and its sender attaches the
	// recipient's tail (QueryServer.SummariesTail).
	Summaries []freshness.Summary
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

// DefaultShards is the number of key-range shards a QueryServer uses
// unless overridden with WithShards.
const DefaultShards = 8

// seedFactor scales the minimum population (seedFactor × shards) of an
// installed image that the server splits into balanced shard ranges.
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
// An answer cache's shard mutexes are independent leaves: no cache is
// locked while a core lock is held (a cache's build callback runs
// outside its locks), and epoch stamps are plain atomics that impose no
// ordering.
type QueryServer struct {
	scheme sigagg.Scheme
	folder sigagg.Folder // scheme's decoded-operand aggregation (proof construction)
	nset   int           // configured shard count

	// topo guards the shards and their boundaries: shared by every query
	// and every delta, exclusive only while install swaps a sorted image
	// in — the one place the keyspace is split — so a delta never waits
	// on the queries holding topo shared.
	topo   sync.RWMutex
	bounds []int64 // ascending split keys; shard i covers keys < bounds[i]; nil = everything in shard 0
	shards []*shard

	// epochs[i] versions the data of shard i. Updates bump the epochs of
	// exactly the shards they touch while holding those shards' write
	// locks, so an answer cache entry stamped under the read locks stays
	// valid until an intersecting update lands — and no longer. The
	// slice is allocated once and never reallocated, because stamps hold
	// pointers into it: it outlives every installed image, which
	// replaces qs.shards and bumps every epoch.
	epochs []atomic.Uint64

	// filter is the owner-certified Bloom filter on the key attribute
	// (§3.5; nil until one is disseminated) and filterEpoch its version.
	// Apply and install store the pointer and then bump the epoch, under
	// routing; Filter loads them in the opposite order, so a stamp never
	// claims a newer filter than the one read beside it.
	filter      atomic.Pointer[join.FilterCert]
	filterEpoch atomic.Uint64

	// routing serializes the writers: deltas and installs (queries never
	// touch it).
	routing sync.Mutex

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
	}
	for _, o := range opts {
		o(qs)
	}
	qs.bounds, qs.shards, _ = qs.stage(nil) // an empty image stages without error
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
func (qs *QueryServer) Shards() int { return qs.nset }

// Scheme returns the (bound) signature scheme the server proves under —
// what a planner executor needs to assemble projection and join proof
// sections over this relation's answers.
func (qs *QueryServer) Scheme() sigagg.Scheme { return qs.scheme }

// unsorted returns the first index of srs whose key does not exceed its
// predecessor's, or 0 when srs is strictly key-ascending.
func unsorted(srs []SignedRecord) int {
	for i := 1; i < len(srs); i++ {
		if srs[i].Rec.Key <= srs[i-1].Rec.Key {
			return i
		}
	}
	return 0
}

// stage builds, outside every lock, the shards a sorted image installs:
// every record's leaf with its sideband prepared, the bounds at the key
// quantiles once there are seedFactor records per shard, and each
// shard's tree bottom-up — Θ(n) aggregation operations instead of n
// incremental O(log n) insertions. Nothing of the server changes.
func (qs *QueryServer) stage(srs []SignedRecord) (bounds []int64, shards []*shard, err error) {
	if i := unsorted(srs); i > 0 {
		return nil, nil, fmt.Errorf("core: image records not in strict key order at %d", i)
	}
	entries := make([]aggtree.Entry, len(srs))
	payloads := make([]stored, len(srs))
	for i := range srs {
		if entries[i], err = qs.leaf(&srs[i], &payloads[i]); err != nil {
			return nil, nil, err
		}
	}
	if n := qs.nset; n > 1 && len(entries) >= seedFactor*n {
		bounds = make([]int64, n-1)
		for i := range bounds {
			bounds[i] = entries[(i+1)*len(entries)/n].Key
		}
	}
	shards = make([]*shard, qs.nset)
	for i := range shards {
		end := len(entries)
		if i < len(bounds) {
			end = sort.Search(len(entries), func(j int) bool { return entries[j].Key >= bounds[i] })
		}
		tree, _, err := aggtree.BulkLoad(qs.scheme, entries[:end])
		if err != nil {
			return nil, nil, fmt.Errorf("core: shard %d bulk load: %w", i, err)
		}
		shards[i] = &shard{tree: tree}
		entries = entries[end:]
	}
	return bounds, shards, nil
}

// install swaps in the sorted image of srs, staged before any lock is
// taken, and bumps every epoch: the one place the server's keyspace is
// split. A load (msg, delivered to an empty server) then takes msg's
// summary and filter; a Restore (st) replaces the summary stream and the
// filter with st's.
func (qs *QueryServer) install(srs []SignedRecord, msg *UpdateMsg, st *ServerState) error {
	bounds, shards, err := qs.stage(srs)
	if err != nil {
		return err
	}
	qs.topo.Lock()
	defer qs.topo.Unlock()
	qs.routing.Lock()
	defer qs.routing.Unlock()
	if msg != nil {
		for _, sh := range qs.shards {
			if sh.tree.Len() > 0 {
				return fmt.Errorf("core: load into a non-empty server")
			}
		}
	}
	qs.bounds, qs.shards = bounds, shards
	for i := range qs.epochs {
		qs.epochs[i].Add(1)
	}
	if msg != nil {
		qs.appendSummary(msg.Summary)
		qs.setFilter(msg.Filter)
		return nil
	}
	qs.sumMu.Lock()
	qs.summaries = append([]freshness.Summary(nil), st.Summaries...)
	qs.sumMu.Unlock()
	qs.filter.Store(st.Filter)
	qs.filterEpoch.Add(1)
	return nil
}

// put is one upsert of a delta, staged: its leaf and the leaf's chain
// signature prepared.
type put struct {
	e  aggtree.Entry
	op sigagg.Operand
}

// Apply ingests one dissemination message from the DataAggregator.
// Messages from the single-writer DA are serialized; queries touching
// disjoint shards proceed concurrently. A load — a key-sorted
// multi-record message without deletes, delivered to an empty server, as
// DA.Load produces — is installed as a sorted image. Any other message is
// a delta: deletes by key, then upserts, every upsert staged before a lock
// is taken, so a refused message leaves the server as it was.
func (qs *QueryServer) Apply(msg *UpdateMsg) error {
	if fc := msg.Filter; fc != nil && (fc.PF == nil || len(fc.Sigs) != fc.PF.P()) {
		return fmt.Errorf("core: filter certificate with %d signatures does not match its partitions", len(fc.Sigs))
	}
	if len(msg.Deletes) == 0 && len(msg.Upserts) > 1 && unsorted(msg.Upserts) == 0 && qs.Len() == 0 {
		return qs.install(msg.Upserts, msg, nil)
	}
	puts := make([]put, len(msg.Upserts))
	for i := range msg.Upserts {
		e, err := qs.leaf(&msg.Upserts[i], new(stored))
		if err != nil {
			return err
		}
		op, err := qs.folder.Prepare(e.Sig)
		if err != nil {
			return fmt.Errorf("core: apply upsert of key %d: %w", e.Key, err)
		}
		puts[i] = put{e, op}
	}
	qs.topo.RLock()
	defer qs.topo.RUnlock()
	qs.routing.Lock()
	defer qs.routing.Unlock()

	// Write-lock the touched shards in ascending order, and invalidate
	// cached answers over exactly those. Bumping inside the write-lock
	// critical section makes the epoch check exact: any answer stamped
	// before the lock was granted carries an older epoch and can never be
	// served again.
	touched := make([]bool, len(qs.shards))
	for _, del := range msg.Deletes {
		touched[qs.shardOf(del.Key)] = true
	}
	for _, p := range puts {
		touched[qs.shardOf(p.e.Key)] = true
	}
	for id, t := range touched {
		if t {
			qs.shards[id].mu.Lock()
			qs.epochs[id].Add(1)
		}
	}
	defer func() {
		for id, t := range touched {
			if t {
				qs.shards[id].mu.Unlock()
			}
		}
	}()

	for _, del := range msg.Deletes {
		qs.shards[qs.shardOf(del.Key)].tree.Delete(del.Key)
	}
	for _, p := range puts {
		qs.shards[qs.shardOf(p.e.Key)].tree.Put(p.e, p.op)
	}
	qs.appendSummary(msg.Summary)
	qs.setFilter(msg.Filter)
	return nil
}

// setFilter installs a re-certified filter, retiring every cached answer
// built from the one before.
//
//authlint:locked the caller (Apply or install) holds routing
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
