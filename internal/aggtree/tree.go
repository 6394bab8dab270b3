package aggtree

import (
	"fmt"
	"math"

	"authdb/internal/sigagg"
)

// Entry is one leaf of the aggregation tree: the indexed key, the record
// identifier, the record's aggregate-capable signature and an opaque
// payload the tree stores and hands back untouched (the query server
// keeps the record body and its sideband there).
type Entry struct {
	Key     int64
	RID     uint64
	Sig     sigagg.Signature
	Payload any
}

// Tree is a weight-balanced search tree over entries ordered by key,
// where every node also stores the aggregate of its subtree. Range
// aggregates and incremental maintenance (upsert, delete) both cost
// O(log n) aggregation operations. The zero value is not usable; call
// New or BulkLoad.
//
// Nodes hold their signatures decoded (sigagg.Folder): the leaf
// signature is prepared once, when it enters the tree, and the subtree
// aggregate is kept as an un-normalised sum that is never encoded — it
// only ever feeds other sums. Maintenance and range folds therefore cost
// additions alone; the one normalisation of an answer happens in the
// accumulator the range was folded into.
//
// Tree performs no locking. Mutations must be externally serialized;
// read operations (Get, Predecessor, Successor, Ascend, Scan, FoldRange,
// AggRange, Len, Height) never mutate the tree and may run concurrently
// with each other.
type Tree struct {
	folder sigagg.Folder
	root   *node
}

type node struct {
	Entry       // as stored: the signature as signed, and the payload
	left, right *node
	size        int
	leaf        sigagg.Operand // Sig, prepared
	sum         sigagg.Sum     // un-normalised aggregate over the whole subtree
}

func (n *node) sz() int {
	if n == nil {
		return 0
	}
	return n.size
}

// Weight-balance parameters (Adams' trees, the variant used by Haskell's
// Data.Map): a node is rebalanced when one child's weight exceeds
// wDelta times the other's; wRatio selects single vs double rotation.
const (
	wDelta = 3
	wRatio = 2
)

func weight(n *node) int { return n.sz() + 1 }

// New returns an empty tree aggregating under scheme.
func New(scheme sigagg.Scheme) *Tree {
	return &Tree{folder: sigagg.FolderFor(scheme)}
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.root.sz() }

// Predecessor returns the entry with the largest key below key.
func (t *Tree) Predecessor(key int64) (Entry, bool) {
	var best *node
	for n := t.root; n != nil; {
		if n.Key < key {
			best, n = n, n.right
		} else {
			n = n.left
		}
	}
	if best == nil {
		return Entry{}, false
	}
	return best.Entry, true
}

// Successor returns the entry with the smallest key above key.
func (t *Tree) Successor(key int64) (Entry, bool) {
	var best *node
	for n := t.root; n != nil; {
		if n.Key > key {
			best, n = n, n.left
		} else {
			n = n.right
		}
	}
	if best == nil {
		return Entry{}, false
	}
	return best.Entry, true
}

// Ascend calls fn for every entry with lo <= key <= hi in key order,
// stopping early when fn returns false. It copies nothing and descends
// only into subtrees that can hold keys in range.
func (t *Tree) Ascend(lo, hi int64, fn func(Entry) bool) {
	ascend(t.root, lo, hi, fn)
}

func ascend(n *node, lo, hi int64, fn func(Entry) bool) bool {
	for n != nil {
		switch {
		case n.Key < lo:
			n = n.right
		case n.Key > hi:
			n = n.left
		default:
			if !ascend(n.left, lo, hi, fn) || !fn(n.Entry) {
				return false
			}
			n = n.right
		}
	}
	return true
}

// Scan calls fn for every entry in key order, stopping early when fn
// returns false: Ascend over the whole key domain.
func (t *Tree) Scan(fn func(Entry) bool) {
	t.Ascend(math.MinInt64, math.MaxInt64, fn)
}

// prepare decodes e's signature — the only step of any mutation that
// can fail, taken before the tree is touched.
func (t *Tree) prepare(e Entry) (sigagg.Operand, error) {
	leaf, err := t.folder.Prepare(e.Sig)
	if err != nil {
		return nil, fmt.Errorf("aggtree: key %d: %w", e.Key, err)
	}
	return leaf, nil
}

// newNode returns a node holding e, whose prepared signature is leaf;
// its size and sum are for the caller's pull to fill.
func (t *Tree) newNode(e Entry, leaf sigagg.Operand) *node {
	return &node{Entry: e, leaf: leaf, sum: t.folder.NewSum()}
}

// pull recomputes n's size and subtree sum from its children, in place,
// returning the aggregation operations spent: one per child folded into
// the node's own leaf.
func pull(n *node) int {
	n.size = 1 + n.left.sz() + n.right.sz()
	n.sum.Reset()
	ops := 0
	if n.left != nil {
		n.sum.Merge(n.left.sum)
		ops++
	}
	n.sum.Fold(n.leaf)
	if n.right != nil {
		n.sum.Merge(n.right.sum)
		ops++
	}
	return ops
}

func rotateLeft(n *node) (*node, int) {
	r := n.right
	n.right = r.left
	ops := pull(n)
	r.left = n
	return r, ops + pull(r)
}

func rotateRight(n *node) (*node, int) {
	l := n.left
	n.left = l.right
	ops := pull(n)
	l.right = n
	return l, ops + pull(l)
}

// balance restores the weight invariant at n after one child changed by
// a single insertion or deletion. n's size and sum must already be
// current (pull before balance).
func balance(n *node) (*node, int) {
	lw, rw := weight(n.left), weight(n.right)
	switch {
	case lw+rw <= 2: // at most one entry below
		return n, 0
	case rw > wDelta*lw:
		ops := 0
		if weight(n.right.left) >= wRatio*weight(n.right.right) {
			n.right, ops = rotateRight(n.right)
		}
		root, rops := rotateLeft(n)
		return root, ops + rops
	case lw > wDelta*rw:
		ops := 0
		if weight(n.left.right) >= wRatio*weight(n.left.left) {
			n.left, ops = rotateLeft(n.left)
		}
		root, rops := rotateRight(n)
		return root, ops + rops
	default:
		return n, 0
	}
}

// Put inserts the entry or replaces the one stored under its key, given
// leaf, e's signature prepared by the tree's scheme, so it cannot fail.
// It returns whether an existing entry was replaced and the aggregation
// operations spent on maintenance.
func (t *Tree) Put(e Entry, leaf sigagg.Operand) (replaced bool, ops int) {
	t.root, replaced, ops = t.upsert(t.root, e, leaf)
	return replaced, ops
}

func (t *Tree) upsert(n *node, e Entry, leaf sigagg.Operand) (*node, bool, int) {
	if n == nil {
		n = t.newNode(e, leaf)
		pull(n)
		return n, false, 0
	}
	var (
		replaced bool
		ops      int
	)
	switch {
	case e.Key < n.Key:
		n.left, replaced, ops = t.upsert(n.left, e, leaf)
	case e.Key > n.Key:
		n.right, replaced, ops = t.upsert(n.right, e, leaf)
	default:
		n.Entry, n.leaf = e, leaf
		return n, true, pull(n)
	}
	ops += pull(n)
	if replaced {
		// Size unchanged: the weight invariant still holds.
		return n, true, ops
	}
	root, bops := balance(n)
	return root, false, ops + bops
}

// Delete removes the entry stored under key, returning whether it
// existed and the aggregation operations spent on maintenance.
func (t *Tree) Delete(key int64) (deleted bool, ops int) {
	t.root, deleted, ops = del(t.root, key)
	return deleted, ops
}

func del(n *node, key int64) (*node, bool, int) {
	if n == nil {
		return nil, false, 0
	}
	var (
		deleted bool
		ops     int
	)
	switch {
	case key < n.Key:
		n.left, deleted, ops = del(n.left, key)
	case key > n.Key:
		n.right, deleted, ops = del(n.right, key)
	default:
		if n.left == nil {
			return n.right, true, 0
		}
		if n.right == nil {
			return n.left, true, 0
		}
		// Replace n's payload with the successor (min of right subtree).
		var min *node
		min, n.right, ops = deleteMin(n.right)
		n.Entry, n.leaf = min.Entry, min.leaf
		deleted = true
	}
	if !deleted {
		return n, false, ops
	}
	ops += pull(n)
	root, bops := balance(n)
	return root, true, ops + bops
}

func deleteMin(n *node) (min, rest *node, ops int) {
	if n.left == nil {
		return n, n.right, 0
	}
	min, n.left, ops = deleteMin(n.left)
	ops += pull(n)
	root, bops := balance(n)
	return min, root, ops + bops
}

// FoldRange folds the aggregate over every entry with lo <= key <= hi
// into acc — at most 2·log n leaf operands and subtree sums, the point
// of the structure — and returns how many pieces it folded (0 when the
// range holds no entry). Folding k pieces into an empty accumulator is
// k-1 aggregation operations; a caller covering several trees with one
// accumulator counts across them.
func (t *Tree) FoldRange(acc sigagg.Sum, lo, hi int64) (pieces int, err error) {
	if lo > hi {
		return 0, fmt.Errorf("aggtree: inverted range [%d,%d]", lo, hi)
	}
	// Descend to the topmost node inside [lo, hi], then cover the two
	// flanks with geometrically growing whole subtrees.
	n := t.root
	for n != nil && (n.Key < lo || n.Key > hi) {
		if n.Key < lo {
			n = n.right
		} else {
			n = n.left
		}
	}
	if n == nil {
		return 0, nil
	}
	acc.Fold(n.leaf)
	pieces = 1
	// Every entry of the left subtree with key >= lo.
	for l := n.left; l != nil; {
		if l.Key < lo {
			l = l.right
			continue
		}
		acc.Fold(l.leaf)
		pieces++
		if l.right != nil {
			acc.Merge(l.right.sum)
			pieces++
		}
		l = l.left
	}
	// Every entry of the right subtree with key <= hi.
	for r := n.right; r != nil; {
		if r.Key > hi {
			r = r.left
			continue
		}
		acc.Fold(r.leaf)
		pieces++
		if r.left != nil {
			acc.Merge(r.left.sum)
			pieces++
		}
		r = r.right
	}
	return pieces, nil
}

// BulkLoad builds a perfectly balanced tree from entries strictly sorted
// by key, computing every subtree sum bottom-up in Θ(n) total
// aggregation operations (vs Θ(n log n) for n incremental upserts). It
// returns the tree and the operations spent.
func BulkLoad(scheme sigagg.Scheme, entries []Entry) (*Tree, int, error) {
	for i := 1; i < len(entries); i++ {
		if entries[i].Key <= entries[i-1].Key {
			return nil, 0, fmt.Errorf("aggtree: bulk load input not strictly sorted at %d", i)
		}
	}
	t := New(scheme)
	root, ops, err := t.build(entries)
	if err != nil {
		return nil, ops, err
	}
	t.root = root
	return t, ops, nil
}

func (t *Tree) build(entries []Entry) (*node, int, error) {
	if len(entries) == 0 {
		return nil, 0, nil
	}
	mid := len(entries) / 2
	leaf, err := t.prepare(entries[mid])
	if err != nil {
		return nil, 0, err
	}
	n := t.newNode(entries[mid], leaf)
	var lops, rops int
	if n.left, lops, err = t.build(entries[:mid]); err != nil {
		return nil, lops, err
	}
	if n.right, rops, err = t.build(entries[mid+1:]); err != nil {
		return nil, lops + rops, err
	}
	return n, lops + rops + pull(n), nil
}
