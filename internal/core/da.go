package core

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sort"

	"authdb/internal/chain"
	"authdb/internal/freshness"
	"authdb/internal/join"
	"authdb/internal/projection"
	"authdb/internal/sigagg"
)

// DataAggregator is the trusted data owner: it maintains the relation,
// chain-signs records, publishes ρ-period summaries, and renews aging
// signatures (§3.1).
//
// Every operation plans, signs, then commits. It plans the record
// versions to certify — each at its new timestamp with the neighbours
// it will be chained between — and certify signs them in one batch on
// the signing pool (see sigagg.Scheme.SignBatch), with the §3.4
// attribute signatures and a close's summary (Publisher.Next). Only the
// signed message changes state, through ReplayMsg, the transition
// recovery replays logged messages with; a failed signature changes
// nothing.
type DataAggregator struct {
	priv     sigagg.PrivateKey
	cfg      Config
	pool     *sigagg.Pool
	attrSign bool // projection mode: chain over stripped records, attrs signed per slot

	order   keyOrder  // the stored records in key order (keyorder.go)
	bySlot  []*Record // bySlot[rid]: rid's current version, nil if none; its TS is the last certification time
	ages    certHeap  // lazy min-heap over the stored records' TS (see ageheap.go)
	nextRID uint64

	pub *freshness.Publisher

	// lastMark is the latest timestamp a slot was marked at — a version
	// certified or a record deleted. ClosePeriod closes strictly after it.
	lastMark int64
}

// DAOption configures a DataAggregator.
type DAOption func(*DataAggregator)

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
		priv: priv,
		cfg:  cfg,
		pool: sigagg.NewPool(scheme, 0),
	}
	for _, o := range opts {
		o(da)
	}
	// Summary certification rides the same pool, so it gets the scheme's
	// batched signing path (e.g. CRT for condensed RSA).
	da.pub = freshness.NewPublisher(func(digest []byte) (sigagg.Signature, error) {
		return da.pool.Sign(da.priv, digest)
	}, 0, 0)
	return da, nil
}

// Len returns the relation cardinality.
func (da *DataAggregator) Len() int { return da.order.Len() }

// held returns the stored version of the record at rid, or nil.
func (da *DataAggregator) held(rid uint64) *Record {
	if rid < uint64(len(da.bySlot)) {
		return da.bySlot[rid]
	}
	return nil
}

// maxRID is the largest rid a record may hold: a rid is its record's
// slot in the period summaries, an int on every platform.
const maxRID = math.MaxInt32

// slot maps a record to its position in the period summaries.
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
// plus their per-slot signatures at the version's timestamp ride along,
// signed through the pool. No-op for ordinary relations. The owner's
// state keeps full records: ReplayMsg folds the values back in.
func (da *DataAggregator) sealMsg(msg *UpdateMsg) error {
	if !da.attrSign || len(msg.Upserts) == 0 {
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
	sigs, err := projection.SignRecords(da.pool, da.priv, rids, attrs, tss)
	if err != nil {
		return fmt.Errorf("core: attr signing: %w", err)
	}
	for i := range msg.Upserts {
		msg.Upserts[i].AttrSigs = sigs[i]
	}
	return nil
}

// CertifyFilter builds and signs a partitioned Bloom filter over the
// relation's current key set at time ts (§3.5), for servers answering
// equi-joins with Bloom-negative unmatched proofs. The owner re-certifies
// after updates that change the key set; verifiers bound the filter's
// age against the relation's certified summaries.
func (da *DataAggregator) CertifyFilter(valuesPerPartition int, bitsPerKey float64, ts int64) (*join.FilterCert, error) {
	keys := make([]int64, 0, da.order.Len())
	da.order.scan(func(rec *Record) bool {
		keys = append(keys, rec.Key)
		return true
	})
	return join.CertifyKeys(da.pool, da.priv, keys, valuesPerPartition, bitsPerKey, ts)
}

// plan lists the record versions one operation certifies, in the order
// its message emits them: recs[i] is a fresh version (never a stored
// record mutated — answers and the query server hold earlier ones),
// chained between refs[i][0] and refs[i][1]. The versions sit in an
// array of their own, so the stored records pointing into it do not pin
// the refs.
type plan struct {
	recs []Record
	refs [][2]chain.Ref
}

func newPlan(n int) *plan {
	return &plan{recs: make([]Record, 0, n), refs: make([][2]chain.Ref, 0, n)}
}

// add plans rec's version at ts between left and right.
func (p *plan) add(rec *Record, ts int64, left, right chain.Ref) {
	p.recs = append(p.recs, Record{RID: rec.RID, Key: rec.Key, Attrs: rec.Attrs, TS: ts})
	p.refs = append(p.refs, [2]chain.Ref{left, right})
}

// neighbours returns the chain references around key among the stored
// records.
func (da *DataAggregator) neighbours(key int64) (left, right chain.Ref) {
	left, right = chain.MinRef, chain.MaxRef
	pred, succ := da.order.around(key)
	if pred != nil {
		left = pred.Ref()
	}
	if succ != nil {
		right = succ.Ref()
	}
	return left, right
}

// planResign plans a re-signature at ts of the stored record rid, if
// any, against its current neighbours: a neighbour's identity changed,
// the record was multi-updated, or its signature is due for renewal.
func (da *DataAggregator) planResign(p *plan, rid uint64, ts int64) {
	if rec := da.held(rid); rec != nil {
		left, right := da.neighbours(rec.Key)
		p.add(rec, ts, left, right)
	}
}

// certify signs every planned version in one pool batch and emits them
// into msg in plan order with the §3.4 sideband; it changes no state. It
// is the only place a chain signature is made, and refuses a stamp before
// the open period's start, whose version every client would find stale.
func (da *DataAggregator) certify(msg *UpdateMsg, p *plan) (*UpdateMsg, error) {
	if start := da.pub.PeriodStart(); msg.TS < start {
		return nil, fmt.Errorf("core: stamp %d before the open period's start, %d", msg.TS, start)
	}
	n := len(p.recs)
	if n == 0 {
		return msg, nil
	}
	sigs, err := da.pool.SignIndexed(da.priv, n, func(i int) []byte {
		return da.chainDigest(&p.recs[i], p.refs[i][0], p.refs[i][1])
	})
	if err != nil {
		return nil, fmt.Errorf("core: sign: %w", err)
	}
	msg.Upserts = make([]SignedRecord, n)
	for i := range p.recs {
		msg.Upserts[i] = SignedRecord{Rec: &p.recs[i], Sig: sigs[i]}
	}
	if err := da.sealMsg(msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// commit makes a signed message the owner's state through ReplayMsg.
func (da *DataAggregator) commit(msg *UpdateMsg, err error) (*UpdateMsg, error) {
	if err != nil {
		return nil, err
	}
	return msg, da.ReplayMsg(msg)
}

// install makes v the stored version of its record, with an age-heap
// entry when the certification time moved and the record's mark in the
// period's summary.
func (da *DataAggregator) install(v *Record) {
	if old := da.store(v); old == nil || old.TS != v.TS {
		da.pushAge(v.RID, v.TS)
	}
	da.mark(slot(v.RID), v.TS)
}

// store makes v the stored version of its record, in key order (inserted
// for a new key) and in its slot, moves the rid allocator past it, and
// returns the version it replaced, or nil.
func (da *DataAggregator) store(v *Record) (old *Record) {
	da.order.put(v)
	da.nextRID = max(da.nextRID, v.RID)
	old = da.held(v.RID)
	if n := slot(v.RID) + 1; n > len(da.bySlot) {
		da.bySlot = append(da.bySlot, make([]*Record, n-len(da.bySlot))...)
	}
	da.bySlot[v.RID] = v
	return old
}

// remove drops a stored record at ts; its age-heap entry is discarded
// lazily.
func (da *DataAggregator) remove(rec *Record, ts int64) {
	da.order.delete(rec.Key)
	da.bySlot[rec.RID] = nil
	da.mark(slot(rec.RID), ts)
}

// mark records in the period's summary that sl changed at ts.
func (da *DataAggregator) mark(sl int, ts int64) {
	da.pub.MarkUpdated(sl)
	da.lastMark = max(da.lastMark, ts)
}

// admit checks a key-sorted batch before anything is signed — keys
// unique and not stored, explicit rids neither held by a stored record
// nor repeated, and no rid, explicit or numbered, past maxRID — and then
// numbers the records without a rid past every rid the relation or the
// batch holds.
func (da *DataAggregator) admit(sorted []*Record) error {
	var explicit []uint64
	next := da.nextRID
	for i, rec := range sorted {
		if i > 0 && rec.Key == sorted[i-1].Key {
			return fmt.Errorf("core: duplicate key %d in load", rec.Key)
		}
		if da.order.get(rec.Key) != nil {
			return fmt.Errorf("core: key %d already present", rec.Key)
		}
		if rec.RID == 0 {
			continue
		}
		if rec.RID > maxRID {
			return fmt.Errorf("core: rid %d of key %d past %d", rec.RID, rec.Key, maxRID)
		}
		if held := da.held(rec.RID); held != nil {
			return fmt.Errorf("core: rid %d of key %d already held by key %d", rec.RID, rec.Key, held.Key)
		}
		explicit = append(explicit, rec.RID)
		next = max(next, rec.RID)
	}
	slices.Sort(explicit)
	for i := 1; i < len(explicit); i++ {
		if explicit[i] == explicit[i-1] {
			return fmt.Errorf("core: rid %d repeated in load", explicit[i])
		}
	}
	if numbered := uint64(len(sorted) - len(explicit)); next+numbered > maxRID {
		return fmt.Errorf("core: numbering %d records past rid %d would pass %d", numbered, next, maxRID)
	}
	for _, rec := range sorted {
		if rec.RID == 0 {
			next++
			rec.RID = next
		}
	}
	return nil
}

// Load inserts the records (sorted or not; keys must be unique and new)
// at time ts and returns the dissemination message carrying every signed
// record. Records without a rid are numbered; an explicit rid must be
// free. Typically called once to seed the query server.
func (da *DataAggregator) Load(recs []*Record, ts int64) (*UpdateMsg, error) {
	byKey := func(a, b *Record) int { return cmp.Compare(a.Key, b.Key) }
	sorted := recs
	if !slices.IsSortedFunc(recs, byKey) {
		// Only copy and sort when the caller's order actually needs
		// fixing; generators and snapshots already deliver key order.
		sorted = slices.Clone(recs)
		slices.SortFunc(sorted, byKey)
	}
	if err := da.admit(sorted); err != nil {
		return nil, err
	}
	return da.commit(da.certify(&UpdateMsg{TS: ts}, da.planLoad(sorted, ts)))
}

// planLoad plans a sorted batch of new records into the relation: each
// is chained to its neighbours in the merged key order — the nearer of
// the adjacent batch members and the stored records around it — and is
// followed by each stored record it lands next to (a seam), re-signed
// once against its own merged neighbours. Into an empty relation that
// is the batch chained to itself; a batch of one is an insert, followed
// by both its re-signed neighbours. Cost is O(b log N) index probes for
// b records against N stored ones; the stored relation is never
// scanned.
func (da *DataAggregator) planLoad(sorted []*Record, ts int64) *plan {
	b := len(sorted)
	// merged returns key's neighbours in the merged order, given the
	// batch members just below and just above it (indexes may fall off
	// the batch).
	merged := func(key int64, below, above int) (left, right chain.Ref) {
		left, right = da.neighbours(key)
		if below >= 0 && sorted[below].Key > left.Key {
			left = sorted[below].Ref()
		}
		if above < b && sorted[above].Key < right.Key {
			right = sorted[above].Ref()
		}
		return left, right
	}
	p := newPlan(b + 2)
	lastSeam := chain.MinRef
	for i, rec := range sorted {
		left, right := merged(rec.Key, i-1, i+1)
		p.add(rec, ts, left, right)
		for _, nb := range [2]chain.Ref{left, right} {
			// A stored neighbour is a seam. It sits between two
			// consecutive batch members at most, so it can only repeat as
			// the previous seam.
			stored := da.held(nb.RID)
			if stored == nil || stored.Key != nb.Key || nb == lastSeam {
				continue
			}
			lastSeam = nb
			above := sort.Search(b, func(j int) bool { return sorted[j].Key > nb.Key })
			l, r := merged(nb.Key, above-1, above)
			p.add(stored, ts, l, r)
		}
	}
	return p
}

// Insert adds a new record at time ts: a load of one record, so both
// neighbours, whose chaining changes, are re-signed in the same message.
func (da *DataAggregator) Insert(rec *Record, ts int64) (*UpdateMsg, error) {
	return da.Load([]*Record{rec}, ts)
}

// Update replaces the record's attribute values at time ts; neighbours
// are unaffected (the chain references only keys and rids).
func (da *DataAggregator) Update(key int64, attrs [][]byte, ts int64) (*UpdateMsg, error) {
	rec := da.order.get(key)
	if rec == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownKey, key)
	}
	left, right := da.neighbours(key)
	p := newPlan(1)
	p.add(&Record{RID: rec.RID, Key: key, Attrs: attrs}, ts, left, right)
	return da.commit(da.certify(&UpdateMsg{TS: ts}, p))
}

// Delete removes the record at time ts; its former neighbours now chain
// to each other and are re-signed against the chain the delete leaves.
func (da *DataAggregator) Delete(key int64, ts int64) (*UpdateMsg, error) {
	rec := da.order.get(key)
	if rec == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownKey, key)
	}
	left, right := da.neighbours(key)
	p := newPlan(2)
	if left != chain.MinRef {
		da.planResign(p, left.RID, ts)
		p.refs[len(p.refs)-1][1] = right // the deleted record's successor
	}
	if right != chain.MaxRef {
		da.planResign(p, right.RID, ts)
		p.refs[len(p.refs)-1][0] = left // the deleted record's predecessor
	}
	return da.commit(da.certify(&UpdateMsg{TS: ts, Deletes: []chain.Ref{rec.Ref()}}, p))
}

// ClosePeriod certifies the current ρ-period's summary at time ts, then
// re-certifies at ts the records the closed period updated more than
// once (§3.1's multi-update rule). The returned message carries the
// summary plus those re-signed records.
//
// The re-signatures open the next period. CheckFresh reads a version at
// TS ts as belonging to the period that starts at ts, and each
// re-signature is its slot's first mark there, so a change to it later in
// that period makes the slot multi-updated again, and the next close
// re-certifies it once more. A version the closed period certified and
// then replaced is stale once the next summary is out.
//
// ts must be later than every operation so far: a version certified at
// the close's own TS before the close would be read as the next period's
// while its mark went into this period's summary, and a change to it in
// the next period would read as the version itself.
func (da *DataAggregator) ClosePeriod(ts int64) (*UpdateMsg, error) {
	if ts <= da.lastMark {
		return nil, fmt.Errorf("core: close at %d not after the last operation, at %d", ts, da.lastMark)
	}
	summary, multi, err := da.pub.Next(ts)
	if err != nil {
		return nil, err
	}
	p := newPlan(len(multi))
	for _, sl := range multi {
		da.planResign(p, uint64(sl), ts)
	}
	return da.commit(da.certify(&UpdateMsg{TS: ts, Summary: &summary}, p))
}

// reopen starts the period a close at ts opened: it marks every
// multi-updated slot whose record is gone; the close re-certifies the
// others. (A record deleted in the period of its last certification was
// marked only in that period, where CheckFresh reads a mark as the
// version itself; without the new mark its last version would pass as
// fresh forever.)
func (da *DataAggregator) reopen(multi []int, ts int64) {
	for _, sl := range multi {
		if da.held(uint64(sl)) == nil {
			da.mark(sl, ts)
		}
	}
}

// RenewOld re-signs up to budget records whose signatures are older
// than ρ' at time now — the low-priority renewal process of §3.1. It
// returns the dissemination message (possibly empty) and the number of
// records renewed.
//
// Candidates come off the age heap oldest-first, so each renewal step
// is O(log n) regardless of how sparse the rid space has become
// (deleted rids never surface).
func (da *DataAggregator) RenewOld(now int64, budget int) (*UpdateMsg, int, error) {
	msg := &UpdateMsg{TS: now}
	var popped []certEntry
	p := newPlan(0)
	for len(popped) < budget {
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
		da.planResign(p, top.rid, now)
	}
	if _, err := da.commit(da.certify(msg, p)); err != nil {
		// Refused or unsigned, so no state changed: restore the popped
		// entries so the records stay renewal candidates.
		for _, e := range popped {
			heap.Push(&da.ages, e)
		}
		return nil, 0, err
	}
	return msg, len(popped), nil
}

// OldestCertTS reports the oldest live signature's certification time,
// bounding how much summary history users need. The age heap makes
// this a peek — O(1) plus stale pops amortized against the pushes that
// created them — instead of a scan of every record.
func (da *DataAggregator) OldestCertTS() int64 {
	da.dropStaleAges()
	if len(da.ages) == 0 {
		return -1
	}
	return da.ages[0].ts
}
