// Package embtree implements the EMB⁻-tree of Li et al. (SIGMOD'06), the
// paper's Merkle-hash-tree baseline: a B+-tree whose every node embeds a
// binary Merkle hash tree over its children, with the root digest signed
// by the data owner.
//
// Each leaf entry is ⟨key, digest, rid⟩; an internal node additionally
// stores one digest per child, which reduces its fanout to 146 (97
// effective) versus 512 for the signature-aggregation index — the height
// penalty of Table 1. Every update propagates digests from the affected
// leaf to the root, so an update transaction must hold the root
// exclusively; this is the concurrency bottleneck Figures 7 and 9
// demonstrate.
package embtree

import (
	"errors"
	"fmt"
	"sort"

	"authdb/internal/digest"
	"authdb/internal/mht"
	"authdb/internal/storage"
)

// LeafEntry is one ⟨key, digest, rid⟩ data entry.
type LeafEntry struct {
	Key       int64
	RID       uint64
	RecDigest digest.Digest // digest of the underlying record content
}

func (e LeafEntry) digest() digest.Digest {
	w := digest.NewWriter(40)
	w.PutInt64(e.Key)
	w.PutUint64(e.RID)
	w.PutDigest(e.RecDigest)
	return w.Sum()
}

// ErrDuplicateKey mirrors btree.ErrDuplicateKey.
var ErrDuplicateKey = errors.New("embtree: duplicate key")

// ErrVerify is returned when a query answer fails verification.
var ErrVerify = errors.New("embtree: verification failed")

// Tree is the EMB⁻-tree.
type Tree struct {
	leafCap   int
	fanout    int
	root      node
	firstLeaf *leaf
	size      int
	height    int
	pool      *storage.BufferPool
	nextPage  storage.PageID
	hashOps   uint64 // digest computations, for cost accounting
}

type node interface {
	page() storage.PageID
	dig() digest.Digest
}

type leaf struct {
	pid        storage.PageID
	entries    []LeafEntry
	entryDigs  []digest.Digest
	digest     digest.Digest
	prev, next *leaf
}

type inner struct {
	pid       storage.PageID
	keys      []int64
	children  []node
	childDigs []digest.Digest
	digest    digest.Digest
}

func (l *leaf) page() storage.PageID  { return l.pid }
func (n *inner) page() storage.PageID { return n.pid }
func (l *leaf) dig() digest.Digest    { return l.digest }
func (n *inner) dig() digest.Digest   { return n.digest }

// Option configures a Tree.
type Option func(*Tree)

// WithBufferPool charges node visits to pool.
func WithBufferPool(pool *storage.BufferPool) Option {
	return func(t *Tree) { t.pool = pool }
}

// WithCapacities overrides the page-derived capacities (for tests).
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

// New creates an empty EMB⁻-tree under the page model.
func New(cfg storage.PageConfig, opts ...Option) *Tree {
	t := &Tree{
		leafCap: cfg.LeafCapacityEMB(),
		fanout:  cfg.InternalFanoutEMB(),
	}
	for _, o := range opts {
		o(t)
	}
	lf := &leaf{pid: t.allocPage()}
	t.root = lf
	t.firstLeaf = lf
	t.recomputeLeaf(lf)
	return t
}

func (t *Tree) allocPage() storage.PageID {
	t.nextPage++
	return t.nextPage
}

func (t *Tree) touch(n node, dirty bool) {
	if t.pool != nil {
		t.pool.Touch(n.page(), dirty)
	}
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of internal levels.
func (t *Tree) Height() int { return t.height }

// HashOps returns the cumulative count of digest computations.
func (t *Tree) HashOps() uint64 { return t.hashOps }

// RootDigest returns the current Merkle root digest.
func (t *Tree) RootDigest() digest.Digest { return t.root.dig() }

func (t *Tree) recomputeLeaf(l *leaf) {
	l.entryDigs = l.entryDigs[:0]
	for _, e := range l.entries {
		l.entryDigs = append(l.entryDigs, e.digest())
	}
	t.hashOps += uint64(len(l.entries)) + uint64(len(l.entries)) // entry digests + merkle combines (≈)
	l.digest = mht.Root(l.entryDigs)
}

func (t *Tree) recomputeInner(n *inner) {
	n.childDigs = n.childDigs[:0]
	for _, c := range n.children {
		n.childDigs = append(n.childDigs, c.dig())
	}
	t.hashOps += uint64(len(n.children))
	n.digest = mht.Root(n.childDigs)
}

// RootCert is the owner's certification of the tree state: the signed
// root digest with the certification timestamp (the paper periodically
// re-signs the root; the timestamp prevents replay of stale roots).
type RootCert struct {
	Root digest.Digest
	TS   int64
	Sig  []byte
}

// CertDigest is the byte string the owner signs.
func (c RootCert) CertDigest() digest.Digest {
	w := digest.NewWriter(32)
	w.PutDigest(c.Root)
	w.PutInt64(c.TS)
	return w.Sum()
}

// Certify builds a RootCert at timestamp ts using the owner's signing
// function.
func (t *Tree) Certify(ts int64, sign func([]byte) ([]byte, error)) (RootCert, error) {
	cert := RootCert{Root: t.RootDigest(), TS: ts}
	d := cert.CertDigest()
	sig, err := sign(d[:])
	if err != nil {
		return RootCert{}, fmt.Errorf("embtree: certify: %w", err)
	}
	cert.Sig = sig
	return cert, nil
}

// Get returns the entry with the given key.
func (t *Tree) Get(key int64) (LeafEntry, bool) {
	lf := t.findLeaf(key)
	i := sort.Search(len(lf.entries), func(i int) bool { return lf.entries[i].Key >= key })
	if i < len(lf.entries) && lf.entries[i].Key == key {
		return lf.entries[i], true
	}
	return LeafEntry{}, false
}

func (t *Tree) findLeaf(key int64) *leaf {
	n := t.root
	for {
		t.touch(n, false)
		switch v := n.(type) {
		case *leaf:
			return v
		case *inner:
			idx := sort.Search(len(v.keys), func(i int) bool { return key < v.keys[i] })
			n = v.children[idx]
		}
	}
}

// Insert adds an entry and propagates digests to the root.
func (t *Tree) Insert(e LeafEntry) error {
	sep, right, err := t.insert(t.root, e)
	if err != nil {
		return err
	}
	if right != nil {
		newRoot := &inner{
			pid:      t.allocPage(),
			keys:     []int64{sep},
			children: []node{t.root, right},
		}
		t.recomputeInner(newRoot)
		t.touch(newRoot, true)
		t.root = newRoot
		t.height++
	}
	t.size++
	return nil
}

func (t *Tree) insert(n node, e LeafEntry) (sep int64, right node, err error) {
	switch v := n.(type) {
	case *leaf:
		i := sort.Search(len(v.entries), func(i int) bool { return v.entries[i].Key >= e.Key })
		if i < len(v.entries) && v.entries[i].Key == e.Key {
			return 0, nil, fmt.Errorf("%w: %d", ErrDuplicateKey, e.Key)
		}
		v.entries = append(v.entries, LeafEntry{})
		copy(v.entries[i+1:], v.entries[i:])
		v.entries[i] = e
		t.touch(v, true)
		if len(v.entries) <= t.leafCap {
			t.recomputeLeaf(v)
			return 0, nil, nil
		}
		mid := len(v.entries) / 2
		rl := &leaf{pid: t.allocPage()}
		rl.entries = append(rl.entries, v.entries[mid:]...)
		v.entries = v.entries[:mid]
		rl.next = v.next
		rl.prev = v
		if v.next != nil {
			v.next.prev = rl
		}
		v.next = rl
		t.recomputeLeaf(v)
		t.recomputeLeaf(rl)
		t.touch(rl, true)
		return rl.entries[0].Key, rl, nil

	case *inner:
		idx := sort.Search(len(v.keys), func(i int) bool { return e.Key < v.keys[i] })
		t.touch(v, false)
		sep, child, err := t.insert(v.children[idx], e)
		if err != nil {
			return 0, nil, err
		}
		if child == nil {
			t.recomputeInner(v)
			t.touch(v, true)
			return 0, nil, nil
		}
		v.keys = append(v.keys, 0)
		copy(v.keys[idx+1:], v.keys[idx:])
		v.keys[idx] = sep
		v.children = append(v.children, nil)
		copy(v.children[idx+2:], v.children[idx+1:])
		v.children[idx+1] = child
		t.touch(v, true)
		if len(v.children) <= t.fanout {
			t.recomputeInner(v)
			return 0, nil, nil
		}
		midKey := len(v.keys) / 2
		up := v.keys[midKey]
		rn := &inner{pid: t.allocPage()}
		rn.keys = append(rn.keys, v.keys[midKey+1:]...)
		rn.children = append(rn.children, v.children[midKey+1:]...)
		v.keys = v.keys[:midKey]
		v.children = v.children[:midKey+1]
		t.recomputeInner(v)
		t.recomputeInner(rn)
		t.touch(rn, true)
		return up, rn, nil
	}
	panic("embtree: unknown node type")
}

// UpdateRecord replaces the record digest for key and propagates the
// change to the root (the O(log N) digest path of §2.2).
func (t *Tree) UpdateRecord(key int64, recDigest digest.Digest) bool {
	return t.update(t.root, key, recDigest)
}

func (t *Tree) update(n node, key int64, rd digest.Digest) bool {
	switch v := n.(type) {
	case *leaf:
		i := sort.Search(len(v.entries), func(i int) bool { return v.entries[i].Key >= key })
		if i >= len(v.entries) || v.entries[i].Key != key {
			return false
		}
		v.entries[i].RecDigest = rd
		t.recomputeLeaf(v)
		t.touch(v, true)
		return true
	case *inner:
		idx := sort.Search(len(v.keys), func(i int) bool { return key < v.keys[i] })
		t.touch(v, false)
		if !t.update(v.children[idx], key, rd) {
			return false
		}
		t.recomputeInner(v)
		t.touch(v, true)
		return true
	}
	panic("embtree: unknown node type")
}

// Delete removes the entry with the given key, propagating digests.
func (t *Tree) Delete(key int64) (LeafEntry, bool) {
	e, ok := t.delete(t.root, key)
	if !ok {
		return LeafEntry{}, false
	}
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

func (t *Tree) delete(n node, key int64) (LeafEntry, bool) {
	switch v := n.(type) {
	case *leaf:
		i := sort.Search(len(v.entries), func(i int) bool { return v.entries[i].Key >= key })
		if i >= len(v.entries) || v.entries[i].Key != key {
			return LeafEntry{}, false
		}
		e := v.entries[i]
		v.entries = append(v.entries[:i], v.entries[i+1:]...)
		t.recomputeLeaf(v)
		t.touch(v, true)
		return e, true
	case *inner:
		idx := sort.Search(len(v.keys), func(i int) bool { return key < v.keys[i] })
		t.touch(v, false)
		e, ok := t.delete(v.children[idx], key)
		if !ok {
			return LeafEntry{}, false
		}
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
		t.recomputeInner(v)
		t.touch(v, true)
		return e, true
	}
	panic("embtree: unknown node type")
}

// BulkLoad builds an EMB⁻-tree bottom-up from entries sorted strictly by
// key, at the configured utilization.
func BulkLoad(cfg storage.PageConfig, entries []LeafEntry, opts ...Option) (*Tree, error) {
	t := New(cfg, opts...)
	if len(entries) == 0 {
		return t, nil
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Key <= entries[i-1].Key {
			return nil, fmt.Errorf("embtree: bulk load input not strictly sorted at %d", i)
		}
	}
	util := cfg.Utilization
	if util <= 0 || util > 1 {
		util = 1
	}
	perLeaf := int(float64(t.leafCap) * util)
	if perLeaf < 1 {
		perLeaf = 1
	}
	perNode := int(float64(t.fanout) * util)
	if perNode < 2 {
		perNode = 2
	}

	var level []node
	var seps []int64
	var prev *leaf
	for i := 0; i < len(entries); i += perLeaf {
		j := i + perLeaf
		if j > len(entries) {
			j = len(entries)
		}
		lf := &leaf{pid: t.allocPage()}
		lf.entries = append(lf.entries, entries[i:j]...)
		lf.prev = prev
		if prev != nil {
			prev.next = lf
		}
		prev = lf
		t.recomputeLeaf(lf)
		t.touch(lf, true)
		level = append(level, lf)
		seps = append(seps, lf.entries[0].Key)
	}
	t.firstLeaf = level[0].(*leaf)

	height := 0
	for len(level) > 1 {
		var parents []node
		var parentSeps []int64
		for i := 0; i < len(level); i += perNode {
			j := i + perNode
			if j > len(level) {
				j = len(level)
			}
			if j-i == 1 && len(parents) > 0 {
				p := parents[len(parents)-1].(*inner)
				p.keys = append(p.keys, seps[i])
				p.children = append(p.children, level[i])
				t.recomputeInner(p)
				break
			}
			n := &inner{pid: t.allocPage()}
			n.children = append(n.children, level[i:j]...)
			n.keys = append(n.keys, seps[i+1:j]...)
			t.recomputeInner(n)
			t.touch(n, true)
			parents = append(parents, n)
			parentSeps = append(parentSeps, seps[i])
		}
		level = parents
		seps = parentSeps
		height++
	}
	t.root = level[0]
	t.height = height
	t.size = len(entries)
	return t, nil
}
