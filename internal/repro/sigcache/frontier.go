package sigcache

import (
	"fmt"

	"authdb/internal/sigagg"
)

// Node identifies a node Ti,j of the conceptual binary signature tree
// over a power-of-two leaf array: Level i (0 = leaves, log2(N) = root)
// and position j within the level.
type Node struct {
	Level int
	Pos   int64
}

// String renders the paper's Ti,j notation.
func (n Node) String() string { return fmt.Sprintf("T%d,%d", n.Level, n.Pos) }

// Span returns the leaf interval [lo, hi] covered by the node.
func (n Node) Span() (lo, hi int64) {
	c := int64(1) << n.Level
	return n.Pos * c, (n.Pos+1)*c - 1
}

// Remover is the capability SigCache's maintenance needs beyond
// sigagg.Scheme: cancelling one signature out of an aggregate, so that
// Remove(AggregateInto(nil, {a, s}), s) == a. The service never removes —
// it re-aggregates — so the interface lives here, with its only user:
// bas, xortest and crsa's bound scheme provide it.
type Remover interface {
	Remove(agg, sig sigagg.Signature) (sigagg.Signature, error)
}

// RefreshPolicy selects how pinned aggregates are maintained under leaf
// updates (§4.3).
type RefreshPolicy int

const (
	// EagerRefresh folds every update into the affected pinned
	// aggregates inside the update operation.
	EagerRefresh RefreshPolicy = iota
	// LazyRefresh records a coalesced delta per leaf and applies it on
	// the aggregate's next use.
	LazyRefresh
)

// CoverStats reports the cost of one Cover call: Ops is the total
// aggregation operations spent (including refreshes triggered along the
// way, which RefreshOps breaks out), and Hits counts the pinned
// aggregates used.
type CoverStats struct {
	Ops        int
	RefreshOps int
	Hits       int
}

type delta struct {
	old, new sigagg.Signature
}

type fentry struct {
	node     Node
	sig      sigagg.Signature
	pending  map[int64]delta // leaf index -> coalesced delta (lazy)
	accesses uint64
}

// NodeAccess pairs a pinned node with its access count.
type NodeAccess struct {
	Node  Node
	Count uint64
}

// Frontier is the §4 signature tree with only a pinned frontier of node
// aggregates materialized: leaves are always present, and a chosen set
// of internal nodes holds precomputed aggregates. Covering a range uses
// the cheapest mix of pinned aggregates and leaf combinations — spans
// without pinned cover cost linear work, which is precisely the
// memory-constrained cost model SigCache's selection optimizes.
//
// Frontier performs no locking; Cache wraps it with a mutex and layers
// the selection/admission/revision policies and statistics.
type Frontier struct {
	scheme     sigagg.Scheme
	rm         Remover // scheme's Remove
	n          int64
	levels     int
	leaves     []sigagg.Signature
	entries    map[Node]*fentry
	policy     RefreshPolicy
	admitLevel int // >0: auto-admit computed blocks at this level or above
}

// NewFrontier creates a frontier over the given leaf signatures (length
// a power of two >= 2). The leaves are copied. The scheme must be a
// Remover.
func NewFrontier(scheme sigagg.Scheme, leaves []sigagg.Signature, policy RefreshPolicy) (*Frontier, error) {
	rm, ok := scheme.(Remover)
	if !ok {
		return nil, fmt.Errorf("sigcache: scheme %s cannot remove a signature from an aggregate", scheme.Name())
	}
	n := int64(len(leaves))
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("sigcache: leaf count must be a power of two >= 2, got %d", n)
	}
	levels := 0
	for v := n; v > 1; v >>= 1 {
		levels++
	}
	own := make([]sigagg.Signature, n)
	copy(own, leaves)
	return &Frontier{
		scheme:  scheme,
		rm:      rm,
		n:       n,
		levels:  levels,
		leaves:  own,
		entries: map[Node]*fentry{},
		policy:  policy,
	}, nil
}

// N returns the number of leaves.
func (f *Frontier) N() int64 { return f.n }

// Levels returns log2(N), the root level.
func (f *Frontier) Levels() int { return f.levels }

// PinnedCount returns the number of materialized node aggregates.
func (f *Frontier) PinnedCount() int { return len(f.entries) }

// Leaf returns the current signature of leaf idx.
func (f *Frontier) Leaf(idx int64) sigagg.Signature { return f.leaves[idx] }

// SetAdmitLevel makes Cover admit aggregates it computes for aligned
// blocks at or above level (<= 0 disables admission).
func (f *Frontier) SetAdmitLevel(level int) { f.admitLevel = level }

// Valid reports whether n addresses an internal node of this tree.
func (f *Frontier) Valid(n Node) bool {
	return n.Level >= 1 && n.Level <= f.levels && n.Pos >= 0 && n.Pos < f.n>>n.Level
}

// Pin materializes and pins the aggregate for node n, computing it from
// previously pinned descendants where possible. It reports the
// aggregation operations spent (zero when already pinned) and, of
// those, how many were refreshes of existing entries.
func (f *Frontier) Pin(n Node) (ops, refreshOps int, err error) {
	if !f.Valid(n) {
		return 0, 0, fmt.Errorf("sigcache: node %v out of range", n)
	}
	if _, ok := f.entries[n]; ok {
		return 0, 0, nil
	}
	lo, hi := n.Span()
	sig, st, err := f.Cover(lo, hi, false)
	if err != nil {
		return st.Ops, st.RefreshOps, err
	}
	f.entries[n] = &fentry{node: n, sig: sig, pending: map[int64]delta{}}
	return st.Ops, st.RefreshOps, nil
}

// Unpin drops a pinned aggregate.
func (f *Frontier) Unpin(n Node) { delete(f.entries, n) }

// Accesses returns the access counters of all pinned nodes.
func (f *Frontier) Accesses() []NodeAccess {
	out := make([]NodeAccess, 0, len(f.entries))
	for n, e := range f.entries {
		out = append(out, NodeAccess{Node: n, Count: e.accesses})
	}
	return out
}

// ResetAccesses zeroes every pinned node's access counter.
func (f *Frontier) ResetAccesses() {
	for _, e := range f.entries {
		e.accesses = 0
	}
}

// Cover builds the aggregate signature over leaves [lo, hi] (inclusive)
// from the cheapest available mix of pinned aggregates and leaves. When
// countAccesses is set, pinned-node access counters are bumped (queries
// count; internal materialization does not).
func (f *Frontier) Cover(lo, hi int64, countAccesses bool) (sigagg.Signature, CoverStats, error) {
	var st CoverStats
	if lo < 0 || hi >= f.n || lo > hi {
		return nil, st, fmt.Errorf("sigcache: bad range [%d,%d] over %d leaves", lo, hi, f.n)
	}
	sig, err := f.cover(Node{Level: f.levels, Pos: 0}, lo, hi, countAccesses, &st)
	return sig, st, err
}

func (f *Frontier) cover(node Node, lo, hi int64, count bool, st *CoverStats) (sigagg.Signature, error) {
	nlo, nhi := node.Span()
	if nhi < lo || nlo > hi {
		return nil, nil
	}
	if lo <= nlo && nhi <= hi {
		// Fully covered: use the pinned aggregate if present.
		if e, ok := f.entries[node]; ok {
			refreshOps, err := f.refresh(e)
			st.Ops += refreshOps
			st.RefreshOps += refreshOps
			if err != nil {
				return nil, err
			}
			if count {
				st.Hits++
				e.accesses++
			}
			return e.sig, nil
		}
		if node.Level == 0 {
			return f.leaves[nlo], nil
		}
	}
	if node.Level == 0 {
		return f.leaves[nlo], nil
	}
	left := Node{Level: node.Level - 1, Pos: node.Pos * 2}
	right := Node{Level: node.Level - 1, Pos: node.Pos*2 + 1}
	lsig, err := f.cover(left, lo, hi, count, st)
	if err != nil {
		return nil, err
	}
	rsig, err := f.cover(right, lo, hi, count, st)
	if err != nil {
		return nil, err
	}
	switch {
	case lsig == nil:
		return rsig, nil
	case rsig == nil:
		return lsig, nil
	default:
		sum, err := f.add(lsig, rsig)
		if err != nil {
			return nil, err
		}
		st.Ops++
		// Adaptive admission (§4.2): keep block aggregates computed on
		// the query path so later queries reuse them.
		if count && f.admitLevel > 0 && node.Level >= f.admitLevel &&
			lo <= nlo && nhi <= hi {
			if _, cached := f.entries[node]; !cached {
				f.entries[node] = &fentry{node: node, sig: sum, pending: map[int64]delta{}}
			}
		}
		return sum, nil
	}
}

// add folds sig into agg.
func (f *Frontier) add(agg, sig sigagg.Signature) (sigagg.Signature, error) {
	return f.scheme.AggregateInto(nil, []sigagg.Signature{agg, sig})
}

// refresh applies any pending lazy deltas to a pinned entry, returning
// the operations spent.
func (f *Frontier) refresh(e *fentry) (int, error) {
	if len(e.pending) == 0 {
		return 0, nil
	}
	ops := 0
	for _, d := range e.pending {
		var err error
		e.sig, err = f.rm.Remove(e.sig, d.old)
		if err != nil {
			return ops, err
		}
		e.sig, err = f.add(e.sig, d.new)
		if err != nil {
			return ops, err
		}
		ops += 2
	}
	e.pending = map[int64]delta{}
	return ops, nil
}

// UpdateLeaf installs a new signature for leaf idx and maintains the
// pinned aggregates above it per the refresh policy. ops is the
// operations spent folding the update into pinned aggregates (zero
// under LazyRefresh); staleOps counts refreshes of older pending deltas
// forced along the way (policy switches).
func (f *Frontier) UpdateLeaf(idx int64, sig sigagg.Signature) (ops, staleOps int, err error) {
	if idx < 0 || idx >= f.n {
		return 0, 0, fmt.Errorf("sigcache: leaf %d out of range", idx)
	}
	old := f.leaves[idx]
	f.leaves[idx] = sig
	for l, pos := 1, idx>>1; l <= f.levels; l, pos = l+1, pos>>1 {
		e, ok := f.entries[Node{Level: l, Pos: pos}]
		if !ok {
			continue
		}
		if f.policy == EagerRefresh {
			// Apply any older pending deltas first (policy switches).
			rops, err := f.refresh(e)
			staleOps += rops
			if err != nil {
				return ops, staleOps, err
			}
			if e.sig, err = f.rm.Remove(e.sig, old); err != nil {
				return ops, staleOps, err
			}
			if e.sig, err = f.add(e.sig, sig); err != nil {
				return ops, staleOps, err
			}
			ops += 2
		} else {
			// Coalesce: repeated updates to one leaf cost a single
			// remove/add pair at refresh time.
			if d, ok := e.pending[idx]; ok {
				e.pending[idx] = delta{old: d.old, new: sig}
			} else {
				e.pending[idx] = delta{old: old, new: sig}
			}
		}
	}
	return ops, staleOps, nil
}
