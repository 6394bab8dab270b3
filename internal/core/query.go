package core

import (
	"fmt"
	"slices"
	"sort"

	"authdb/internal/aggtree"
	"authdb/internal/anscache"
	"authdb/internal/chain"
	"authdb/internal/freshness"
	"authdb/internal/sigagg"
)

// window is one attempt at answering a query under a contiguous run of
// shard read locks [loS, hiS]. Boundary lookups that would have to look
// beyond the window set the widen flags instead; the caller releases the
// locks, widens the window and retries (only empty edge shards ever
// force a retry).
type window struct {
	qs       *QueryServer
	loS, hiS int
	widenLo  bool
	widenHi  bool
}

func (w *window) pred(key int64) (aggtree.Entry, bool) {
	j := w.qs.shardOf(key)
	if j > w.hiS {
		j = w.hiS
	}
	for ; j >= w.loS; j-- {
		if e, ok := w.qs.shards[j].tree.Predecessor(key); ok {
			return e, true
		}
	}
	if w.loS > 0 {
		w.widenLo = true
	}
	return aggtree.Entry{}, false
}

func (w *window) succ(key int64) (aggtree.Entry, bool) {
	j := w.qs.shardOf(key)
	if j < w.loS {
		j = w.loS
	}
	for ; j <= w.hiS; j++ {
		if e, ok := w.qs.shards[j].tree.Successor(key); ok {
			return e, true
		}
	}
	if w.hiS < len(w.qs.shards)-1 {
		w.widenHi = true
	}
	return aggtree.Entry{}, false
}

func entryRef(e aggtree.Entry) chain.Ref { return chain.Ref{Key: e.Key, RID: e.RID} }

// QueryStamped answers the range selection σ_{lo<=Aind<=hi} with the
// §3.3 proof, plus the epoch stamp of every shard the proof consulted
// (see queryStamped). The aggregate is folded from the overlapped
// shards' aggregation-tree covers — O(log n) additions per shard, one
// normalisation per answer — and never by linearly folding the result
// signatures. The answer carries no summaries: whoever sends it attaches
// the recipient's summary tail (SummariesTail).
func (qs *QueryServer) QueryStamped(lo, hi int64) (*Answer, anscache.Stamp, error) {
	return qs.queryStamped(lo, hi, nil)
}

// AttrRow is one answered record's projection sideband: its identity,
// the attribute values at its certified timestamp, and the per-slot
// owner signatures (§3.4) as prepared operands of the relation's scheme
// (sigagg.FolderFor), ready to fold. Rows align 1:1, in order, with the
// accompanying answer's Chain.Records; the anchor of an empty answer
// contributes no row.
type AttrRow struct {
	RID  uint64
	TS   int64
	Vals [][]byte
	Ops  []sigagg.Operand
}

// QueryProj is QueryStamped for a projection-mode relation: alongside
// the chained (attribute-stripped) answer it returns the sideband rows
// collected under the same shard locks as the scan, so values, per-slot
// signatures and chained timestamps always belong to one consistent
// version. Fails if any answered record lacks a sideband (the relation
// is not projection-mode).
func (qs *QueryServer) QueryProj(lo, hi int64) (*Answer, []AttrRow, anscache.Stamp, error) {
	var rows []AttrRow
	ans, stamp, err := qs.queryStamped(lo, hi, &rows)
	if err != nil {
		return nil, nil, anscache.Stamp{}, err
	}
	return ans, rows, stamp, nil
}

// AppendKeys appends to dst the stored keys in [lo, hi], ascending, and
// stops after max of them. It reads keys only — no record bodies, no
// aggregation — one shard at a time under that shard's read lock, so the
// keys are not one snapshot across shards; the stamp lists the shards it
// read, each at the epoch it had while read. A join executor plans its
// inner scans from it (which outer keys one scan can answer) and holds
// every scan it then makes to what that scan returned.
func (qs *QueryServer) AppendKeys(dst []int64, lo, hi int64, max int) ([]int64, anscache.Stamp) {
	qs.topo.RLock()
	defer qs.topo.RUnlock()
	var stamp anscache.Stamp
	room := max
	for j, last := qs.shardOf(lo), qs.shardOf(hi); j <= last && room > 0; j++ {
		sh := qs.shards[j]
		sh.mu.RLock()
		stamp.Read(&qs.epochs[j])
		sh.tree.Ascend(lo, hi, func(e aggtree.Entry) bool {
			dst = append(dst, e.Key)
			room--
			return room > 0
		})
		sh.mu.RUnlock()
	}
	return dst, stamp
}

// queryStamped builds the answer and the epoch stamp the answer cache
// needs: the version of every shard the proof consulted, read while the
// shard read locks are still held (so the stamp exactly matches the data
// snapshot). Any update that could change this answer must take one of
// those write locks and bumps the corresponding epoch there, so a stamp
// that is still current proves the cached answer is too.
//
// The answer carries NO summaries: it is the cacheable answer core, and
// the serving layer attaches each client's summary delta (SummariesTail)
// at response time. That keeps cached entries valid across ρ-period
// closes — a summary can only affect an answered record by way of an
// update, and updates already bump the shard epochs in the stamp.
func (qs *QueryServer) queryStamped(lo, hi int64, attrs *[]AttrRow) (*Answer, anscache.Stamp, error) {
	if lo > hi {
		return nil, anscache.Stamp{}, fmt.Errorf("core: inverted range [%d,%d]", lo, hi)
	}
	qs.topo.RLock()
	defer qs.topo.RUnlock()
	s, t := qs.shardOf(lo), qs.shardOf(hi)
	loS, hiS := s, t
	for {
		if attrs != nil {
			*attrs = (*attrs)[:0] // widen retries restart the collection
		}
		for j := loS; j <= hiS; j++ {
			qs.shards[j].mu.RLock()
		}
		ans, widenLo, widenHi, err := qs.queryWindow(loS, hiS, s, t, lo, hi, attrs)
		var stamp anscache.Stamp
		if err == nil && ans != nil {
			for j := loS; j <= hiS; j++ {
				stamp.Read(&qs.epochs[j])
			}
		}
		for j := loS; j <= hiS; j++ {
			qs.shards[j].mu.RUnlock()
		}
		if err != nil {
			return nil, anscache.Stamp{}, err
		}
		if ans != nil {
			return ans, stamp, nil
		}
		if widenLo && loS > 0 {
			loS--
		}
		if widenHi && hiS < len(qs.shards)-1 {
			hiS++
		}
	}
}

// queryWindow builds the answer under the currently held shard locks,
// or reports which direction the lock window must grow. A nil answer
// with neither widen flag set never happens (domain edges resolve to
// sentinels, not to widening).
func (qs *QueryServer) queryWindow(loS, hiS, s, t int, lo, hi int64, attrs *[]AttrRow) (*Answer, bool, bool, error) {
	w := &window{qs: qs, loS: loS, hiS: hiS}
	ca := &chain.Answer{Lo: lo, Hi: hi, Left: chain.MinRef, Right: chain.MaxRef}
	ans := &Answer{Chain: ca}
	oldestTS := int64(-1)

	total := 0
	for j := s; j <= t; j++ {
		qs.shards[j].tree.Ascend(lo, hi, func(aggtree.Entry) bool { total++; return true })
	}

	if total == 0 {
		// Anchor on a boundary record (left preferred, else right).
		leftB, lok := w.pred(lo)
		rightB, rok := w.succ(hi)
		if w.widenLo || w.widenHi {
			return nil, w.widenLo, w.widenHi, nil
		}
		var anchorEntry aggtree.Entry
		switch {
		case lok:
			anchorEntry = leftB
		case rok:
			anchorEntry = rightB
		default:
			return nil, false, false, fmt.Errorf("core: empty relation cannot prove emptiness")
		}
		rec := payload(anchorEntry).rec
		la, ra := chain.MinRef, chain.MaxRef
		if p, ok := w.pred(anchorEntry.Key); ok {
			la = entryRef(p)
		}
		if su, ok := w.succ(anchorEntry.Key); ok {
			ra = entryRef(su)
		}
		if w.widenLo || w.widenHi {
			return nil, w.widenLo, w.widenHi, nil
		}
		ca.Anchor = rec
		ca.AnchorLeft, ca.Right = la, ra
		ca.Agg = sigagg.Signature(anchorEntry.Sig).Clone()
		oldestTS = rec.TS
	} else {
		if e, ok := w.pred(lo); ok {
			ca.Left = entryRef(e)
		}
		if e, ok := w.succ(hi); ok {
			ca.Right = entryRef(e)
		}
		if w.widenLo || w.widenHi {
			return nil, w.widenLo, w.widenHi, nil
		}
		ca.Records = make([]*Record, 0, total)
		if attrs != nil {
			*attrs = slices.Grow(*attrs, total) // one row per record
		}
		var err error
		for j := s; j <= t && err == nil; j++ {
			qs.shards[j].tree.Ascend(lo, hi, func(e aggtree.Entry) bool {
				p := payload(e)
				ca.Records = append(ca.Records, p.rec)
				if attrs != nil {
					// Collected under the same shard locks as the scan, so
					// the sideband can never be torn against the chained
					// version (AttrDigest binds the record's timestamp).
					if p.side == nil {
						err = fmt.Errorf("core: key %d has no attribute sideband (relation is not projection-mode)", e.Key)
						return false
					}
					*attrs = append(*attrs, AttrRow{RID: p.rec.RID, TS: p.rec.TS, Vals: p.side.Vals, Ops: p.side.ops})
				}
				if oldestTS == -1 || p.rec.TS < oldestTS {
					oldestTS = p.rec.TS
				}
				return true
			})
		}
		if err != nil {
			return nil, false, false, err
		}
		agg, ops, err := qs.aggregateRuns(s, t, lo, hi)
		if err != nil {
			return nil, false, false, err
		}
		ca.Agg = agg
		ans.Ops = ops
	}
	ans.OldestSigTS = oldestTS
	return ans, false, false, nil
}

// aggregateRuns builds the range aggregate by folding the tree covers of
// shards s..t into one running sum, encoded once.
func (qs *QueryServer) aggregateRuns(s, t int, lo, hi int64) (sigagg.Signature, int, error) {
	acc := qs.folder.NewSum()
	pieces := 0
	for j := s; j <= t; j++ {
		n, err := qs.shards[j].tree.FoldRange(acc, lo, hi)
		if err != nil {
			return nil, 0, err
		}
		pieces += n
	}
	agg, err := acc.Encode(nil)
	if err != nil {
		return nil, 0, err
	}
	return agg, pieces - 1, nil
}

// SummariesTail returns the per-client summary delta the serving layer
// attaches to an answer: for a session that already holds certified
// summaries through sinceSeq, exactly the ones published after it (the
// checker's sequence-contiguity then holds by construction); for a cold
// session (sinceSeq == 0), every summary published since the answer's
// oldest result signature (oldestTS 0: the whole stream). Both
// cuts are over the same sequence-ordered, timestamp-ordered stream, so
// each is one binary search over an immutable suffix.
//
// When a warm session's delta would be empty, the stream's tip is
// echoed instead. The duplicate costs one summary per answer, and buys
// per-answer rollback evidence: the session cross-checks every re-sent
// summary byte-for-byte against its held copy, so a server whose
// certified stream rolled back (lost durable state, then re-certified
// a different history under the same sequence numbers) is convicted of
// authenticated divergence on the very next answer — not merely
// flagged as stale by the freshness bound.
func (qs *QueryServer) SummariesTail(sinceSeq uint64, oldestTS int64) []freshness.Summary {
	qs.sumMu.RLock()
	defer qs.sumMu.RUnlock()
	sums := qs.summaries
	var i int
	if sinceSeq > 0 {
		i = sort.Search(len(sums), func(i int) bool { return sums[i].Seq > sinceSeq })
		if i == len(sums) && len(sums) > 0 {
			i = len(sums) - 1 // empty delta: echo the tip
		}
	} else {
		i = sort.Search(len(sums), func(i int) bool { return sums[i].TS >= oldestTS })
	}
	n := len(sums)
	return sums[i:n:n]
}
