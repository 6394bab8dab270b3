// Package btree implements the authenticated B+-tree of Section 3.2
// ("ASign"): a disk-page-modelled B+-tree whose leaf entries carry
// ⟨key, sn, rid⟩ — the search key, the record's aggregate-capable
// signature, and the record identifier. Internal nodes are identical to
// a plain B+-tree (no embedded digests), which is what gives the index
// its height advantage over the EMB-tree (Table 1).
//
// It is the subject of Table 1 (authbench table1) and what the frozen
// benchmark's per-layer timings import; the service links none of it
// (make fence). The data aggregator keeps its relation in a key-ordered
// block array (internal/core, keyorder.go), and each query server shard
// indexes its records in an aggregation tree (internal/aggtree) that
// also folds the range aggregates: nothing there is paged.
//
// Node capacities are derived from the storage.PageConfig page model.
package btree

import (
	"errors"
	"fmt"
	"sort"

	"authdb/internal/storage"
)

// Entry is one leaf data entry.
type Entry struct {
	Key int64  // indexed attribute value
	RID uint64 // record identifier
	Sig []byte // the record's signature (sn)
}

// ErrDuplicateKey is returned when inserting a key that already exists;
// the chained-signature scheme requires unique values on the indexed
// attribute.
var ErrDuplicateKey = errors.New("btree: duplicate key")

// Tree is the authenticated B+-tree.
type Tree struct {
	leafCap   int
	fanout    int // max children per internal node
	root      node
	firstLeaf *leaf
	size      int
	height    int // number of internal levels (0 = root is a leaf)
}

// node is a *leaf or an *inner.
type node any

type leaf struct {
	entries    []Entry
	prev, next *leaf
}

type inner struct {
	keys     []int64 // keys[i] separates children[i] (< keys[i]) from children[i+1] (>= keys[i])
	children []node
}

// Option configures a Tree.
type Option func(*Tree)

// WithCapacities overrides the page-derived node capacities (useful in
// tests to force deep trees with few keys).
func WithCapacities(leafCap, fanout int) Option {
	return func(t *Tree) {
		if leafCap >= 2 {
			t.leafCap = leafCap
		}
		if fanout >= 3 {
			t.fanout = fanout
		}
	}
}

// New creates an empty tree under the given page model.
func New(cfg storage.PageConfig, opts ...Option) *Tree {
	t := &Tree{
		leafCap: cfg.LeafCapacityASign(),
		fanout:  cfg.InternalFanoutASign(),
	}
	for _, o := range opts {
		o(t)
	}
	lf := &leaf{}
	t.root = lf
	t.firstLeaf = lf
	return t
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of internal levels (0 when the root is a
// leaf), matching the accounting of Table 1.
func (t *Tree) Height() int { return t.height }

// findLeaf descends to the leaf that should hold key.
func (t *Tree) findLeaf(key int64) *leaf {
	n := t.root
	for {
		switch v := n.(type) {
		case *leaf:
			return v
		case *inner:
			idx := sort.Search(len(v.keys), func(i int) bool { return key < v.keys[i] })
			n = v.children[idx]
		}
	}
}

// Get returns the entry with the given key.
func (t *Tree) Get(key int64) (Entry, bool) {
	lf := t.findLeaf(key)
	i := sort.Search(len(lf.entries), func(i int) bool { return lf.entries[i].Key >= key })
	if i < len(lf.entries) && lf.entries[i].Key == key {
		return lf.entries[i], true
	}
	return Entry{}, false
}

// Insert adds a new entry; the key must not already exist.
func (t *Tree) Insert(e Entry) error {
	sep, right, err := t.insert(t.root, e)
	if err != nil {
		return err
	}
	if right != nil {
		newRoot := &inner{
			keys:     []int64{sep},
			children: []node{t.root, right},
		}
		t.root = newRoot
		t.height++
	}
	t.size++
	return nil
}

func (t *Tree) insert(n node, e Entry) (sep int64, right node, err error) {
	switch v := n.(type) {
	case *leaf:
		i := sort.Search(len(v.entries), func(i int) bool { return v.entries[i].Key >= e.Key })
		if i < len(v.entries) && v.entries[i].Key == e.Key {
			return 0, nil, fmt.Errorf("%w: %d", ErrDuplicateKey, e.Key)
		}
		v.entries = append(v.entries, Entry{})
		copy(v.entries[i+1:], v.entries[i:])
		v.entries[i] = e
		if len(v.entries) <= t.leafCap {
			return 0, nil, nil
		}
		// Split.
		mid := len(v.entries) / 2
		rl := &leaf{}
		rl.entries = append(rl.entries, v.entries[mid:]...)
		v.entries = v.entries[:mid]
		rl.next = v.next
		rl.prev = v
		if v.next != nil {
			v.next.prev = rl
		}
		v.next = rl
		return rl.entries[0].Key, rl, nil

	case *inner:
		idx := sort.Search(len(v.keys), func(i int) bool { return e.Key < v.keys[i] })
		sep, child, err := t.insert(v.children[idx], e)
		if err != nil || child == nil {
			return 0, nil, err
		}
		v.keys = append(v.keys, 0)
		copy(v.keys[idx+1:], v.keys[idx:])
		v.keys[idx] = sep
		v.children = append(v.children, nil)
		copy(v.children[idx+2:], v.children[idx+1:])
		v.children[idx+1] = child
		if len(v.children) <= t.fanout {
			return 0, nil, nil
		}
		// Split internal node.
		midKey := len(v.keys) / 2
		up := v.keys[midKey]
		rn := &inner{}
		rn.keys = append(rn.keys, v.keys[midKey+1:]...)
		rn.children = append(rn.children, v.children[midKey+1:]...)
		v.keys = v.keys[:midKey]
		v.children = v.children[:midKey+1]
		return up, rn, nil
	}
	panic("btree: unknown node type")
}

// Update replaces the signature stored for key.
func (t *Tree) Update(key int64, sig []byte) bool {
	lf := t.findLeaf(key)
	i := sort.Search(len(lf.entries), func(i int) bool { return lf.entries[i].Key >= key })
	if i < len(lf.entries) && lf.entries[i].Key == key {
		lf.entries[i].Sig = sig
		return true
	}
	return false
}

// Delete removes the entry with the given key and returns it. Leaves
// that become empty are unlinked; interior separators may become stale,
// which is harmless for routing.
func (t *Tree) Delete(key int64) (Entry, bool) {
	e, ok := t.delete(t.root, key)
	if !ok {
		return Entry{}, false
	}
	// Collapse a root with a single child.
	for {
		v, isInner := t.root.(*inner)
		if !isInner || len(v.children) > 1 {
			break
		}
		t.root = v.children[0]
		t.height--
	}
	t.size--
	return e, true
}

func (t *Tree) delete(n node, key int64) (Entry, bool) {
	switch v := n.(type) {
	case *leaf:
		i := sort.Search(len(v.entries), func(i int) bool { return v.entries[i].Key >= key })
		if i >= len(v.entries) || v.entries[i].Key != key {
			return Entry{}, false
		}
		e := v.entries[i]
		v.entries = append(v.entries[:i], v.entries[i+1:]...)
		return e, true

	case *inner:
		idx := sort.Search(len(v.keys), func(i int) bool { return key < v.keys[i] })
		e, ok := t.delete(v.children[idx], key)
		if !ok {
			return Entry{}, false
		}
		// Unlink an emptied child leaf (keep at least one child).
		if lf, isLeaf := v.children[idx].(*leaf); isLeaf && len(lf.entries) == 0 && len(v.children) > 1 {
			if lf.prev != nil {
				lf.prev.next = lf.next
			} else {
				t.firstLeaf = lf.next
			}
			if lf.next != nil {
				lf.next.prev = lf.prev
			}
			v.children = append(v.children[:idx], v.children[idx+1:]...)
			if idx < len(v.keys) {
				v.keys = append(v.keys[:idx], v.keys[idx+1:]...)
			} else {
				v.keys = v.keys[:len(v.keys)-1]
			}
		}
		return e, true
	}
	panic("btree: unknown node type")
}

// RangeWithBoundaries returns the entries in [lo, hi] plus the boundary
// entries immediately to the left of lo and to the right of hi (nil at
// the domain edges). The boundaries are what the server returns to prove
// completeness of a range selection (§3.3).
func (t *Tree) RangeWithBoundaries(lo, hi int64) (entries []Entry, left, right *Entry) {
	if lo > hi {
		return nil, nil, nil
	}
	lf := t.findLeaf(lo)
	// Back up for the left boundary.
	i := sort.Search(len(lf.entries), func(i int) bool { return lf.entries[i].Key >= lo })
	if i > 0 {
		e := lf.entries[i-1]
		left = &e
	} else {
		for p := lf.prev; p != nil; p = p.prev {
			if len(p.entries) > 0 {
				e := p.entries[len(p.entries)-1]
				left = &e
				break
			}
		}
	}
	// Size the result once: count the run leaf by leaf, then copy whole
	// leaf slices.
	n := 0
	for c, from := lf, i; c != nil; c, from = c.next, 0 {
		past := upperBound(c.entries[from:], hi)
		n += past
		if from+past < len(c.entries) {
			break
		}
	}
	if n > 0 {
		entries = make([]Entry, 0, n)
	}
	for lf != nil {
		end := i + upperBound(lf.entries[i:], hi)
		entries = append(entries, lf.entries[i:end]...)
		if end < len(lf.entries) {
			e := lf.entries[end]
			return entries, left, &e
		}
		lf = lf.next
		i = 0
	}
	return entries, left, nil
}

// upperBound is the number of leading entries with Key <= hi.
func upperBound(entries []Entry, hi int64) int {
	return sort.Search(len(entries), func(i int) bool { return entries[i].Key > hi })
}

// Predecessor returns the entry with the largest key < key.
func (t *Tree) Predecessor(key int64) (Entry, bool) {
	lf := t.findLeaf(key)
	i := sort.Search(len(lf.entries), func(i int) bool { return lf.entries[i].Key >= key })
	if i > 0 {
		return lf.entries[i-1], true
	}
	for p := lf.prev; p != nil; p = p.prev {
		if len(p.entries) > 0 {
			return p.entries[len(p.entries)-1], true
		}
	}
	return Entry{}, false
}

// Successor returns the entry with the smallest key > key.
func (t *Tree) Successor(key int64) (Entry, bool) {
	lf := t.findLeaf(key)
	i := sort.Search(len(lf.entries), func(i int) bool { return lf.entries[i].Key > key })
	for lf != nil {
		if i < len(lf.entries) {
			return lf.entries[i], true
		}
		lf = lf.next
		i = 0
	}
	return Entry{}, false
}

// Scan calls fn for every entry in key order, stopping early if fn
// returns false.
func (t *Tree) Scan(fn func(Entry) bool) {
	for lf := t.firstLeaf; lf != nil; lf = lf.next {
		for _, e := range lf.entries {
			if !fn(e) {
				return
			}
		}
	}
}

// BulkLoad builds a tree bottom-up from entries sorted by key, filling
// nodes to the configured utilization (the standard 2/3 by default).
func BulkLoad(cfg storage.PageConfig, entries []Entry, opts ...Option) (*Tree, error) {
	t := New(cfg, opts...)
	if len(entries) == 0 {
		return t, nil
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Key <= entries[i-1].Key {
			return nil, fmt.Errorf("btree: bulk load input not strictly sorted at %d", i)
		}
	}
	perLeaf := int(float64(t.leafCap) * cfg.Utilization)
	if perLeaf < 1 {
		perLeaf = 1
	}
	perNode := int(float64(t.fanout) * cfg.Utilization)
	if perNode < 2 {
		perNode = 2
	}

	// Build the leaf level.
	var leaves []node
	var seps []int64 // seps[i] = min key of leaves[i]
	var prev *leaf
	for i := 0; i < len(entries); i += perLeaf {
		j := i + perLeaf
		if j > len(entries) {
			j = len(entries)
		}
		lf := &leaf{}
		lf.entries = append(lf.entries, entries[i:j]...)
		lf.prev = prev
		if prev != nil {
			prev.next = lf
		}
		prev = lf
		leaves = append(leaves, lf)
		seps = append(seps, lf.entries[0].Key)
	}
	t.firstLeaf = leaves[0].(*leaf)

	// Build internal levels.
	level := leaves
	levelSeps := seps
	height := 0
	for len(level) > 1 {
		var parents []node
		var parentSeps []int64
		for i := 0; i < len(level); i += perNode {
			j := i + perNode
			if j > len(level) {
				j = len(level)
			}
			// Avoid a final parent with a single child.
			if j-i == 1 && len(parents) > 0 {
				p := parents[len(parents)-1].(*inner)
				p.keys = append(p.keys, levelSeps[i])
				p.children = append(p.children, level[i])
				break
			}
			n := &inner{}
			n.children = append(n.children, level[i:j]...)
			n.keys = append(n.keys, levelSeps[i+1:j]...)
			parents = append(parents, n)
			parentSeps = append(parentSeps, levelSeps[i])
		}
		level = parents
		levelSeps = parentSeps
		height++
	}
	t.root = level[0]
	t.height = height
	t.size = len(entries)
	return t, nil
}

// checkInvariants validates ordering and structure; used by tests.
func (t *Tree) checkInvariants() error {
	count := 0
	var prevKey *int64
	for lf := t.firstLeaf; lf != nil; lf = lf.next {
		for _, e := range lf.entries {
			if prevKey != nil && e.Key <= *prevKey {
				return fmt.Errorf("btree: leaf chain out of order: %d after %d", e.Key, *prevKey)
			}
			k := e.Key
			prevKey = &k
			count++
		}
		if lf.next != nil && lf.next.prev != lf {
			return fmt.Errorf("btree: broken leaf back-link")
		}
	}
	if count != t.size {
		return fmt.Errorf("btree: leaf chain has %d entries, size says %d", count, t.size)
	}
	return t.checkNode(t.root, nil, nil)
}

func (t *Tree) checkNode(n node, lo, hi *int64) error {
	switch v := n.(type) {
	case *leaf:
		for _, e := range v.entries {
			if lo != nil && e.Key < *lo {
				return fmt.Errorf("btree: key %d below separator %d", e.Key, *lo)
			}
			if hi != nil && e.Key >= *hi {
				return fmt.Errorf("btree: key %d not below separator %d", e.Key, *hi)
			}
		}
		return nil
	case *inner:
		if len(v.children) != len(v.keys)+1 {
			return fmt.Errorf("btree: inner node with %d keys, %d children", len(v.keys), len(v.children))
		}
		for i := 1; i < len(v.keys); i++ {
			if v.keys[i] <= v.keys[i-1] {
				return fmt.Errorf("btree: separators out of order")
			}
		}
		for i, c := range v.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = &v.keys[i-1]
			}
			if i < len(v.keys) {
				chi = &v.keys[i]
			}
			if err := t.checkNode(c, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	panic("btree: unknown node type")
}
