package core

import "container/heap"

// certEntry is one (certification time, rid) observation pushed when a
// record is (re-)signed.
type certEntry struct {
	ts  int64
	rid uint64
}

// certHeap is a lazy min-heap over certification times — each stored
// record's TS, the time it was last signed. Certifying a record at a new
// timestamp pushes a fresh entry and leaves the superseded one in place;
// stale entries (whose ts no longer matches the stored record's TS, or
// whose rid was deleted) are discarded when they surface at the top.
// This keeps every certification O(log n), makes OldestCertTS an O(1)
// peek (amortizing the stale pops against the pushes that created
// them), and gives RenewOld an age-ordered iteration that never scans
// deleted rids. Re-certifying a record at its current TS (a neighbour
// re-signed twice at one timestamp) pushes nothing: the live entry is
// still in the heap, and a second copy would make RenewOld renew the
// record twice in one batch.
type certHeap []certEntry

func (h certHeap) Len() int { return len(h) }
func (h certHeap) Less(i, j int) bool {
	if h[i].ts != h[j].ts {
		return h[i].ts < h[j].ts
	}
	return h[i].rid < h[j].rid
}
func (h certHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *certHeap) Push(x any)   { *h = append(*h, x.(certEntry)) }
func (h *certHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// compactSlack bounds how many stale entries the heap may carry beyond
// the live population before it is rebuilt from the stored records.
const compactSlack = 64

// pushAge records that the stored record rid was certified at ts.
func (da *DataAggregator) pushAge(rid uint64, ts int64) {
	heap.Push(&da.ages, certEntry{ts: ts, rid: rid})
	if len(da.ages) > 2*da.order.Len()+compactSlack {
		da.compactAges()
	}
}

// compactAges rebuilds the heap from the stored records, shedding
// accumulated stale observations in O(n).
func (da *DataAggregator) compactAges() {
	da.ages = da.ages[:0]
	for _, rec := range da.bySlot {
		if rec != nil {
			da.ages = append(da.ages, certEntry{ts: rec.TS, rid: rec.RID})
		}
	}
	heap.Init(&da.ages)
}

// dropStaleAges pops superseded and deleted entries off the top until a
// live one (or nothing) remains.
func (da *DataAggregator) dropStaleAges() {
	for len(da.ages) > 0 {
		top := da.ages[0]
		if rec := da.held(top.rid); rec != nil && rec.TS == top.ts {
			return
		}
		heap.Pop(&da.ages)
	}
}
