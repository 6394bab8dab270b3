package core

import (
	"container/heap"
	"fmt"
	"sort"

	"authdb/internal/btree"
	"authdb/internal/chain"
	"authdb/internal/freshness"
	"authdb/internal/join"
	"authdb/internal/projection"
	"authdb/internal/sigagg"
	"authdb/internal/storage"
)

// DataAggregator is the trusted data owner: it maintains the relation,
// chain-signs records, publishes ρ-period summaries, and renews aging
// signatures (§3.1).
//
// Bulk operations — Load, ClosePeriod's re-certifications, RenewOld —
// run through a signing pipeline: once the sorted order is fixed every
// chained digest is known, so the digests are computed and signed on a
// GOMAXPROCS worker pool (using the scheme's batch primitives, see
// sigagg.BatchSigner) and the results are applied in one pass. The
// pre-pipeline behaviour — one Sign per record on the calling
// goroutine, one B+-tree probe per insertion — survives behind
// withSerialSigning as the reproducible baseline, mirroring
// WithLinearAggregation on the query side.
type DataAggregator struct {
	scheme   sigagg.Scheme
	priv     sigagg.PrivateKey
	cfg      Config
	pool     *sigagg.Pool
	serial   bool // baseline: sign one record at a time, insert per record
	attrSign bool // projection mode: chain over stripped records, attrs signed per slot

	index   *btree.Tree        // key -> (rid, current signature)
	byRID   map[uint64]*Record // rid -> record content
	certTS  map[uint64]int64   // rid -> last certification time
	ages    certHeap           // lazy min-heap over certTS (see ageheap.go)
	nextRID uint64

	pub *freshness.Publisher

	// multiPending are slots updated more than once last period, due for
	// re-certification this period (§3.1).
	multiPending []int
}

// DAOption configures a DataAggregator.
type DAOption func(*DataAggregator)

// withSerialSigning reverts to the pre-pipeline baseline: every record
// is signed one at a time on the calling goroutine with the scheme's
// one-shot Sign, and loads insert into the B+-tree record by record.
// Unexported: it is the reference the package's tests hold the
// pipelined path to (byte-identical signatures), not a deployment
// choice.
func withSerialSigning() DAOption {
	return func(da *DataAggregator) { da.serial = true }
}

// WithSigningPool makes the aggregator sign through a shared pool
// instead of creating its own — how a multi-relation Catalog keeps one
// worker set across every relation's owner (the pool takes the private
// key per call, so relations with distinct keys share it safely).
func WithSigningPool(p *sigagg.Pool) DAOption {
	return func(da *DataAggregator) {
		if p != nil {
			da.pool = p
		}
	}
}

// WithAttrSigning switches the relation to projection mode (§3.4): the
// signature chain covers attribute-stripped records — membership and
// completeness only — while every attribute value gets its own owner
// signature binding (rid, slot, value, ts). Dissemination messages then
// carry the values and per-attribute signatures as a sideband
// (SignedRecord.AttrVals/AttrSigs), and served range answers contain
// stripped records, so a projection answer can prove exactly the
// projected columns with one aggregate signature and zero overhead for
// the dropped ones.
func WithAttrSigning() DAOption {
	return func(da *DataAggregator) { da.attrSign = true }
}

// NewDataAggregator creates an empty aggregator. The scheme must
// already be bound (see sigagg.Bind) when it requires signer
// parameters.
func NewDataAggregator(scheme sigagg.Scheme, priv sigagg.PrivateKey, cfg Config, opts ...DAOption) (*DataAggregator, error) {
	if cfg.Rho <= 0 {
		return nil, fmt.Errorf("core: non-positive ρ")
	}
	da := &DataAggregator{
		scheme: scheme,
		priv:   priv,
		cfg:    cfg,
		pool:   sigagg.NewPool(scheme, 0),
		index:  btree.New(storage.DefaultPageConfig()),
		byRID:  make(map[uint64]*Record),
		certTS: make(map[uint64]int64),
		pub:    freshness.NewPublisher(scheme, priv, 0, 0, 0),
	}
	for _, o := range opts {
		o(da)
	}
	if !da.serial {
		// Summary certification rides the same pool, so it gets the
		// scheme's batched signing path (e.g. CRT for condensed RSA).
		da.pub.SetSigner(func(digest []byte) (sigagg.Signature, error) {
			return da.pool.Sign(da.priv, digest)
		})
	}
	return da, nil
}

// Len returns the relation cardinality.
func (da *DataAggregator) Len() int { return da.index.Len() }

// keysAscending reports whether recs are already in non-descending key
// order (duplicate detection happens during the load itself).
func keysAscending(recs []*Record) bool {
	for i := 1; i < len(recs); i++ {
		if recs[i].Key < recs[i-1].Key {
			return false
		}
	}
	return true
}

// slot maps a record to its summary-bitmap position.
func slot(rid uint64) int { return int(rid) }

// chainDigest is the signed chain message for one version: the full
// record for ordinary relations, the attribute-stripped view in
// projection mode (attribute authenticity travels in the per-slot
// signatures instead, so the chain proves membership and completeness
// without re-binding values the projection may drop).
func (da *DataAggregator) chainDigest(v *Record, left, right chain.Ref) []byte {
	if !da.attrSign || v.Attrs == nil {
		return recordDigest(v, left, right)
	}
	s := Record{RID: v.RID, Key: v.Key, TS: v.TS}
	return recordDigest(&s, left, right)
}

// sealMsg attaches the projection-mode sideband to every certified
// record in msg: the emitted record is replaced by an attribute-stripped
// copy (the chained view the server stores and serves), and the values
// plus their per-slot signatures at the version's timestamp ride along.
// Attribute digests fan out through the signing pool like the chain
// digests do; the serial baseline signs per record. No-op for ordinary
// relations. The aggregator's own state (byRID) keeps the full records.
func (da *DataAggregator) sealMsg(msg *UpdateMsg) error {
	if !da.attrSign || msg == nil || len(msg.Upserts) == 0 {
		return nil
	}
	n := len(msg.Upserts)
	rids := make([]uint64, n)
	attrs := make([][][]byte, n)
	tss := make([]int64, n)
	for i := range msg.Upserts {
		up := &msg.Upserts[i]
		full := up.Rec
		rids[i], attrs[i], tss[i] = full.RID, full.Attrs, full.TS
		if attrs[i] == nil {
			attrs[i] = [][]byte{}
		}
		up.Rec = &Record{RID: full.RID, Key: full.Key, TS: full.TS}
		up.AttrVals = attrs[i]
	}
	var sigs [][]sigagg.Signature
	var err error
	if da.serial {
		sigs = make([][]sigagg.Signature, n)
		for i := range sigs {
			if sigs[i], err = projection.SignRecord(da.scheme, da.priv, rids[i], attrs[i], tss[i]); err != nil {
				break
			}
		}
	} else {
		sigs, err = projection.SignRecords(da.pool, da.priv, rids, attrs, tss)
	}
	if err != nil {
		return fmt.Errorf("core: attr signing: %w", err)
	}
	for i := range msg.Upserts {
		msg.Upserts[i].AttrSigs = sigs[i]
	}
	return nil
}

// sealed is sealMsg shaped for return statements.
func (da *DataAggregator) sealed(msg *UpdateMsg) (*UpdateMsg, error) {
	if err := da.sealMsg(msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// AttrSigning reports whether the relation runs in projection mode.
func (da *DataAggregator) AttrSigning() bool { return da.attrSign }

// CertifyFilter builds and signs a partitioned Bloom filter over the
// relation's current key set at time ts (§3.5), for servers answering
// equi-joins with Bloom-negative unmatched proofs. The owner re-certifies
// after updates that change the key set; verifiers bound the filter's
// age against the relation's certified summaries.
func (da *DataAggregator) CertifyFilter(valuesPerPartition int, bitsPerKey float64, ts int64) (*join.FilterCert, error) {
	keys := make([]int64, 0, da.index.Len())
	da.index.Scan(func(e btree.Entry) bool {
		keys = append(keys, e.Key)
		return true
	})
	return join.CertifyKeys(da.pool, da.priv, keys, valuesPerPartition, bitsPerKey, ts)
}

// signAt certifies a new version of rec chained between left and right
// at time ts. It never mutates rec: outstanding answers and the query
// server hold references to earlier versions, so each certification
// produces a fresh Record value.
func (da *DataAggregator) signAt(rec *Record, left, right chain.Ref, ts int64, out *[]SignedRecord) error {
	version := &Record{RID: rec.RID, Key: rec.Key, Attrs: rec.Attrs, TS: ts}
	sig, err := da.scheme.Sign(da.priv, da.chainDigest(version, left, right))
	if err != nil {
		return fmt.Errorf("core: sign rid %d: %w", version.RID, err)
	}
	if !da.index.Update(version.Key, sig) {
		if err := da.index.Insert(btree.Entry{Key: version.Key, RID: version.RID, Sig: sig}); err != nil {
			return err
		}
	}
	da.byRID[version.RID] = version
	da.certify(version.RID, ts)
	da.pub.MarkUpdated(slot(version.RID))
	*out = append(*out, SignedRecord{Rec: version, Sig: sig})
	return nil
}

// neighbours returns the chain references around key.
func (da *DataAggregator) neighbours(key int64) (left, right chain.Ref) {
	left, right = chain.MinRef, chain.MaxRef
	if p, ok := da.index.Predecessor(key); ok {
		left = chain.Ref{Key: p.Key, RID: p.RID}
	}
	if s, ok := da.index.Successor(key); ok {
		right = chain.Ref{Key: s.Key, RID: s.RID}
	}
	return left, right
}

// resign re-signs the existing record with the given key against its
// current neighbours (used when a neighbour's identity changes and for
// active renewal).
func (da *DataAggregator) resign(key int64, ts int64, out *[]SignedRecord) error {
	e, ok := da.index.Get(key)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownKey, key)
	}
	rec := da.byRID[e.RID]
	left, right := da.neighbours(key)
	return da.signAt(rec, left, right, ts, out)
}

// resignBatch re-signs the records with the given keys at time ts
// against their current neighbours. Re-signing never changes a key or
// rid, so every chained digest is computable up front regardless of how
// many batch members are neighbours of each other; the digests fan out
// to the signing pool and the results are applied in one pass. The
// serial baseline falls back to per-record resign.
func (da *DataAggregator) resignBatch(keys []int64, ts int64, out *[]SignedRecord) error {
	if len(keys) == 0 {
		return nil
	}
	if da.serial || len(keys) == 1 {
		for _, k := range keys {
			if err := da.resign(k, ts, out); err != nil {
				return err
			}
		}
		return nil
	}
	versions := make([]Record, len(keys))
	lefts := make([]chain.Ref, len(keys))
	rights := make([]chain.Ref, len(keys))
	for i, k := range keys {
		e, ok := da.index.Get(k)
		if !ok {
			return fmt.Errorf("%w: %d", ErrUnknownKey, k)
		}
		rec := da.byRID[e.RID]
		versions[i] = Record{RID: rec.RID, Key: rec.Key, Attrs: rec.Attrs, TS: ts}
		lefts[i], rights[i] = da.neighbours(k)
	}
	sigs, err := da.pool.SignIndexed(da.priv, len(keys), func(i int) []byte {
		return da.chainDigest(&versions[i], lefts[i], rights[i])
	})
	if err != nil {
		return fmt.Errorf("core: batch re-sign: %w", err)
	}
	for i := range versions {
		v := &versions[i]
		da.index.Update(v.Key, sigs[i])
		da.byRID[v.RID] = v
		da.certify(v.RID, ts)
		da.pub.MarkUpdated(slot(v.RID))
		*out = append(*out, SignedRecord{Rec: v, Sig: sigs[i]})
	}
	return nil
}

// Load bulk-inserts the records (sorted or not; keys must be unique) at
// time ts and returns the dissemination message carrying every signed
// record. Typically called once to seed the query server.
//
// The pipelined path fixes the sorted order, computes every chained
// digest (each record's neighbours are then known), signs them all on
// the worker pool, and bulk-loads the B+-tree bottom-up in one sorted
// pass. withSerialSigning restores the per-record sign-and-insert loop.
func (da *DataAggregator) Load(recs []*Record, ts int64) (*UpdateMsg, error) {
	sorted := recs
	if !keysAscending(recs) {
		// Only copy and sort when the caller's order actually needs
		// fixing; generators and snapshots already deliver key order.
		sorted = make([]*Record, len(recs))
		copy(sorted, recs)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	}
	msg := &UpdateMsg{TS: ts}
	for i, rec := range sorted {
		if i > 0 && rec.Key == sorted[i-1].Key {
			return nil, fmt.Errorf("core: duplicate key %d in load", rec.Key)
		}
		if rec.RID == 0 {
			da.nextRID++
			rec.RID = da.nextRID
		} else if rec.RID > da.nextRID {
			da.nextRID = rec.RID
		}
	}
	if da.index.Len() > 0 {
		return da.mergeLoad(sorted, ts, msg)
	}
	if da.serial {
		for i, rec := range sorted {
			left, right := chain.MinRef, chain.MaxRef
			if i > 0 {
				left = sorted[i-1].Ref()
			}
			if i < len(sorted)-1 {
				right = sorted[i+1].Ref()
			}
			if err := da.signAt(rec, left, right, ts, &msg.Upserts); err != nil {
				return nil, err
			}
		}
		return da.sealed(msg)
	}

	// Pipelined: versioned copies and their chained digests first …
	n := len(sorted)
	versions := make([]Record, n)
	for i, rec := range sorted {
		versions[i] = Record{RID: rec.RID, Key: rec.Key, Attrs: rec.Attrs, TS: ts}
	}
	sigs, err := da.pool.SignIndexed(da.priv, n, func(i int) []byte {
		left, right := chain.MinRef, chain.MaxRef
		if i > 0 {
			left = sorted[i-1].Ref()
		}
		if i < n-1 {
			right = sorted[i+1].Ref()
		}
		return da.chainDigest(&versions[i], left, right)
	})
	if err != nil {
		return nil, fmt.Errorf("core: pipelined load: %w", err)
	}

	// … then the index, built bottom-up in one sorted pass.
	entries := make([]btree.Entry, n)
	for i := range versions {
		entries[i] = btree.Entry{Key: versions[i].Key, RID: versions[i].RID, Sig: sigs[i]}
	}
	idx, err := btree.BulkLoad(storage.DefaultPageConfig(), entries)
	if err != nil {
		return nil, fmt.Errorf("core: pipelined load: %w", err)
	}
	da.index = idx
	msg.Upserts = make([]SignedRecord, n)
	for i := range versions {
		v := &versions[i]
		da.byRID[v.RID] = v
		da.certify(v.RID, ts)
		da.pub.MarkUpdated(slot(v.RID))
		msg.Upserts[i] = SignedRecord{Rec: v, Sig: sigs[i]}
	}
	return da.sealed(msg)
}

// mergeLoad chains a sorted batch into an already-populated relation:
// every new record is signed against its true neighbours in the merged
// key order, and the existing records adjacent to a new one are
// re-signed (their chain references changed) — what Insert does one
// record at a time, planned and signed as one batch. Keys already
// present are rejected. Cost is O(b log N) index probes for a batch of
// b against N stored records; the existing relation is never scanned
// or materialized. (The seed signed such batches against
// batch-internal neighbours only, producing chains that could never
// verify next to pre-existing records.)
func (da *DataAggregator) mergeLoad(sorted []*Record, ts int64, msg *UpdateMsg) (*UpdateMsg, error) {
	b := len(sorted)
	// batchNeighbours returns the nearest batch members around key (the
	// batch is sorted, so two binary searches).
	batchLeft := func(key int64) (chain.Ref, bool) {
		i := sort.Search(b, func(j int) bool { return sorted[j].Key >= key })
		if i == 0 {
			return chain.Ref{}, false
		}
		return sorted[i-1].Ref(), true
	}
	batchRight := func(key int64) (chain.Ref, bool) {
		i := sort.Search(b, func(j int) bool { return sorted[j].Key > key })
		if i == b {
			return chain.Ref{}, false
		}
		return sorted[i].Ref(), true
	}
	inBatch := func(key int64) bool {
		i := sort.Search(b, func(j int) bool { return sorted[j].Key >= key })
		return i < b && sorted[i].Key == key
	}
	// mergedNeighbours are the final neighbours of key: the nearer of
	// the existing pred/succ and the adjacent batch members.
	mergedNeighbours := func(key int64) (left, right chain.Ref) {
		left, right = da.neighbours(key)
		if l, ok := batchLeft(key); ok && l.Key > left.Key {
			left = l
		}
		if r, ok := batchRight(key); ok && r.Key < right.Key {
			right = r
		}
		return left, right
	}

	versions := make([]Record, 0, 3*b)
	lefts := make([]chain.Ref, 0, 3*b)
	rights := make([]chain.Ref, 0, 3*b)
	fresh := make([]bool, 0, 3*b)
	plan := func(rec *Record, isNew bool) {
		left, right := mergedNeighbours(rec.Key)
		versions = append(versions, Record{RID: rec.RID, Key: rec.Key, Attrs: rec.Attrs, TS: ts})
		lefts = append(lefts, left)
		rights = append(rights, right)
		fresh = append(fresh, isNew)
	}
	resigned := make(map[int64]bool)
	for _, rec := range sorted {
		if _, exists := da.index.Get(rec.Key); exists {
			return nil, fmt.Errorf("core: load key %d already present", rec.Key)
		}
		plan(rec, true)
		// Existing records adjacent to this new one in the final order
		// change their chain references; re-sign each such seam
		// neighbour once.
		left, right := lefts[len(lefts)-1], rights[len(rights)-1]
		for _, nb := range []chain.Ref{left, right} {
			if nb == chain.MinRef || nb == chain.MaxRef || resigned[nb.Key] || inBatch(nb.Key) {
				continue
			}
			resigned[nb.Key] = true
			plan(da.byRID[nb.RID], false)
		}
	}

	var sigs []sigagg.Signature
	var err error
	if da.serial {
		sigs = make([]sigagg.Signature, len(versions))
		for t := range versions {
			sigs[t], err = da.scheme.Sign(da.priv, da.chainDigest(&versions[t], lefts[t], rights[t]))
			if err != nil {
				break
			}
		}
	} else {
		sigs, err = da.pool.SignIndexed(da.priv, len(versions), func(t int) []byte {
			return da.chainDigest(&versions[t], lefts[t], rights[t])
		})
	}
	if err != nil {
		return nil, fmt.Errorf("core: merge load: %w", err)
	}
	for t := range versions {
		v := &versions[t]
		if fresh[t] {
			if err := da.index.Insert(btree.Entry{Key: v.Key, RID: v.RID, Sig: sigs[t]}); err != nil {
				return nil, err
			}
		} else {
			da.index.Update(v.Key, sigs[t])
		}
		da.byRID[v.RID] = v
		da.certify(v.RID, ts)
		da.pub.MarkUpdated(slot(v.RID))
		msg.Upserts = append(msg.Upserts, SignedRecord{Rec: v, Sig: sigs[t]})
	}
	return da.sealed(msg)
}

// Insert adds a new record at time ts. The chaining of both neighbours
// changes, so they are re-signed in the same message.
func (da *DataAggregator) Insert(rec *Record, ts int64) (*UpdateMsg, error) {
	if _, exists := da.index.Get(rec.Key); exists {
		return nil, fmt.Errorf("core: key %d already present", rec.Key)
	}
	if rec.RID == 0 {
		da.nextRID++
		rec.RID = da.nextRID
	}
	da.byRID[rec.RID] = rec
	msg := &UpdateMsg{TS: ts}
	left, right := da.neighbours(rec.Key)
	if err := da.signAt(rec, left, right, ts, &msg.Upserts); err != nil {
		return nil, err
	}
	if left != chain.MinRef {
		if err := da.resign(left.Key, ts, &msg.Upserts); err != nil {
			return nil, err
		}
	}
	if right != chain.MaxRef {
		if err := da.resign(right.Key, ts, &msg.Upserts); err != nil {
			return nil, err
		}
	}
	return da.sealed(msg)
}

// Update replaces the record's attribute values at time ts; neighbours
// are unaffected (the chain references only keys and rids).
func (da *DataAggregator) Update(key int64, attrs [][]byte, ts int64) (*UpdateMsg, error) {
	e, ok := da.index.Get(key)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownKey, key)
	}
	msg := &UpdateMsg{TS: ts}
	left, right := da.neighbours(key)
	newVersion := &Record{RID: e.RID, Key: key, Attrs: attrs}
	if err := da.signAt(newVersion, left, right, ts, &msg.Upserts); err != nil {
		return nil, err
	}
	return da.sealed(msg)
}

// Delete removes the record at time ts; its former neighbours now chain
// to each other and are re-signed.
func (da *DataAggregator) Delete(key int64, ts int64) (*UpdateMsg, error) {
	e, ok := da.index.Get(key)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownKey, key)
	}
	left, right := da.neighbours(key)
	da.index.Delete(key)
	delete(da.byRID, e.RID)
	delete(da.certTS, e.RID) // its heap entry is discarded lazily
	da.pub.MarkUpdated(slot(e.RID))
	msg := &UpdateMsg{TS: ts, Deletes: []uint64{e.RID}}
	if left != chain.MinRef {
		if err := da.resign(left.Key, ts, &msg.Upserts); err != nil {
			return nil, err
		}
	}
	if right != chain.MaxRef {
		if err := da.resign(right.Key, ts, &msg.Upserts); err != nil {
			return nil, err
		}
	}
	return da.sealed(msg)
}

// ClosePeriod certifies the current ρ-period's summary at time ts and
// re-certifies the records that were updated multiple times during the
// previous period (§3.1's multi-update rule). The returned message
// carries the summary plus those re-signed records, signed as one batch
// through the pipeline.
func (da *DataAggregator) ClosePeriod(ts int64) (*UpdateMsg, error) {
	msg := &UpdateMsg{TS: ts}
	// Re-certify last period's multi-updated records first, so the
	// summary being published now reflects the re-certification.
	keys := make([]int64, 0, len(da.multiPending))
	for _, sl := range da.multiPending {
		rec, ok := da.byRID[uint64(sl)]
		if !ok {
			continue // deleted meanwhile
		}
		keys = append(keys, rec.Key)
	}
	if err := da.resignBatch(keys, ts, &msg.Upserts); err != nil {
		return nil, err
	}
	summary, multi, err := da.pub.Publish(ts)
	if err != nil {
		return nil, err
	}
	da.multiPending = multi
	msg.Summary = &summary
	return da.sealed(msg)
}

// RenewOld re-signs up to budget records whose signatures are older
// than ρ' at time now — the low-priority renewal process of §3.1. It
// returns the dissemination message (possibly empty) and the number of
// records renewed.
//
// Candidates come off the age heap oldest-first, so each renewal step
// is O(log n) regardless of how sparse the rid space has become
// (deleted rids never surface), and the whole batch is signed through
// the pipeline.
func (da *DataAggregator) RenewOld(now int64, budget int) (*UpdateMsg, int, error) {
	msg := &UpdateMsg{TS: now}
	if budget <= 0 {
		return msg, 0, nil
	}
	var popped []certEntry
	keys := make([]int64, 0, budget)
	for len(keys) < budget {
		da.dropStaleAges()
		if len(da.ages) == 0 {
			break
		}
		top := da.ages[0]
		if now-top.ts <= da.cfg.RhoPrime || now <= top.ts {
			// Everything remaining is younger than ρ' (the second guard
			// keeps a pathological non-positive ρ' from re-certifying a
			// record at its existing timestamp).
			break
		}
		heap.Pop(&da.ages)
		popped = append(popped, top)
		keys = append(keys, da.byRID[top.rid].Key)
	}
	if len(keys) == 0 {
		return msg, 0, nil
	}
	if err := da.resignBatch(keys, now, &msg.Upserts); err != nil {
		// Signing failed before any state changed: restore the popped
		// entries so the records stay renewal candidates.
		for _, e := range popped {
			heap.Push(&da.ages, e)
		}
		return nil, 0, err
	}
	if err := da.sealMsg(msg); err != nil {
		return nil, 0, err
	}
	return msg, len(keys), nil
}

// SnapshotMsg returns a dissemination message carrying every currently
// certified record with its existing signature, sorted by key — what a
// fresh (replica) query server needs to reach the aggregator's state
// without any re-signing.
func (da *DataAggregator) SnapshotMsg(ts int64) (*UpdateMsg, error) {
	msg := &UpdateMsg{TS: ts}
	var missing uint64
	found := true
	da.index.Scan(func(e btree.Entry) bool {
		rec, ok := da.byRID[e.RID]
		if !ok {
			missing, found = e.RID, false
			return false
		}
		msg.Upserts = append(msg.Upserts, SignedRecord{Rec: rec, Sig: e.Sig})
		return true
	})
	if !found {
		return nil, fmt.Errorf("core: snapshot: missing record body for rid %d", missing)
	}
	// Projection mode: the served records are stripped and the sideband is
	// regenerated at each record's own certification time (deterministic
	// schemes reproduce the original signatures; verification only needs
	// validity either way).
	return da.sealed(msg)
}

// SummariesSince returns retained summaries published at or after ts
// (what a server hands a user on log-in).
func (da *DataAggregator) SummariesSince(ts int64) []freshness.Summary {
	return da.pub.Since(ts)
}

// OldestCertTS reports the oldest live signature's certification time,
// bounding how much summary history users need. The age heap makes
// this a peek — O(1) plus stale pops amortized against the pushes that
// created them — instead of the full certTS scan it used to be.
func (da *DataAggregator) OldestCertTS() int64 {
	da.dropStaleAges()
	if len(da.ages) == 0 {
		return -1
	}
	return da.ages[0].ts
}
