package embtree

import (
	"fmt"
	"sort"

	"authdb/internal/digest"
	"authdb/internal/repro/embtree/mht"
)

// VO is the verification object for a range query: one VO node per index
// node intersecting the result span, carrying the within-node binary
// Merkle range proof and recursing into the covered children. The DFS
// layout is deterministic, so verification needs no extra shape data
// beyond the per-node child counts.
type VO struct {
	N        int             // number of children (or entries, for a leaf) of this node
	A, B     int             // covered child/entry span within this node, inclusive
	Proof    []digest.Digest // mht range proof for [A,B] within this node
	Children []*VO           // nil for leaf nodes; len B-A+1 for internal nodes
}

// SizeBytes estimates the transmitted VO size: 20 bytes per digest plus
// 6 bytes of per-node framing (three small varints).
func (v *VO) SizeBytes() int {
	if v == nil {
		return 0
	}
	size := 6 + digest.Size*len(v.Proof)
	for _, c := range v.Children {
		size += c.SizeBytes()
	}
	return size
}

// Result is an authenticated range-query answer. Tuples is the
// contiguous span of entries covering the query range, including the
// left/right boundary entries when they exist (LeftEdge/RightEdge report
// when the span hits the domain edge instead).
type Result struct {
	Tuples    []LeafEntry
	LeftEdge  bool
	RightEdge bool
	VO        *VO
	Cert      RootCert
}

// RangeQuery answers [lo, hi] with a verification object against cert.
func (t *Tree) RangeQuery(lo, hi int64, cert RootCert) (*Result, error) {
	if lo > hi {
		return nil, fmt.Errorf("embtree: inverted range [%d,%d]", lo, hi)
	}
	res := &Result{Cert: cert}
	if t.size == 0 {
		// Empty relation: nothing to prove against other than the root
		// digest of the empty tree.
		res.LeftEdge, res.RightEdge = true, true
		res.VO = t.buildVO(t.root, lo, hi, res)
		return res, nil
	}

	// Extend the key span to the boundary entries.
	lkey, rkey := lo, hi
	if p, ok := t.predecessor(lo); ok {
		lkey = p.Key
	} else {
		res.LeftEdge = true
	}
	if s, ok := t.successor(hi); ok {
		rkey = s.Key
	} else {
		res.RightEdge = true
	}
	res.VO = t.buildVOSpan(t.root, lkey, rkey, res)
	return res, nil
}

func (t *Tree) predecessor(key int64) (LeafEntry, bool) {
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
	return LeafEntry{}, false
}

func (t *Tree) successor(key int64) (LeafEntry, bool) {
	lf := t.findLeaf(key)
	i := sort.Search(len(lf.entries), func(i int) bool { return lf.entries[i].Key > key })
	for lf != nil {
		if i < len(lf.entries) {
			return lf.entries[i], true
		}
		lf = lf.next
		i = 0
	}
	return LeafEntry{}, false
}

// buildVOSpan builds the VO for the inclusive key span [lkey, rkey],
// appending covered tuples to res in leaf order.
func (t *Tree) buildVOSpan(n node, lkey, rkey int64, res *Result) *VO {
	return t.buildVO(n, lkey, rkey, res)
}

func (t *Tree) buildVO(n node, lkey, rkey int64, res *Result) *VO {
	t.touch(n, false)
	switch v := n.(type) {
	case *leaf:
		a := sort.Search(len(v.entries), func(i int) bool { return v.entries[i].Key >= lkey })
		b := sort.Search(len(v.entries), func(i int) bool { return v.entries[i].Key > rkey }) - 1
		vo := &VO{N: len(v.entries), A: a, B: b}
		if len(v.entries) == 0 {
			vo.A, vo.B = 0, -1
			return vo
		}
		if a > b {
			// No entries of this leaf are covered; prove the empty span
			// by handing over the whole node digest (range proof of the
			// full complement). Encode as A=0, B=-1 with a single-digest
			// proof.
			vo.A, vo.B = 0, -1
			vo.Proof = []digest.Digest{v.digest}
			return vo
		}
		proof, err := mht.ProveRange(v.entryDigs, a, b)
		if err != nil {
			panic(fmt.Sprintf("embtree: internal proof error: %v", err))
		}
		vo.Proof = proof
		res.Tuples = append(res.Tuples, v.entries[a:b+1]...)
		return vo

	case *inner:
		// Children [a, b] may contain keys in [lkey, rkey].
		a := sort.Search(len(v.keys), func(i int) bool { return lkey < v.keys[i] })
		b := sort.Search(len(v.keys), func(i int) bool { return rkey < v.keys[i] })
		vo := &VO{N: len(v.children), A: a, B: b}
		proof, err := mht.ProveRange(v.childDigs, a, b)
		if err != nil {
			panic(fmt.Sprintf("embtree: internal proof error: %v", err))
		}
		vo.Proof = proof
		for i := a; i <= b; i++ {
			vo.Children = append(vo.Children, t.buildVO(v.children[i], lkey, rkey, res))
		}
		return vo
	}
	panic("embtree: unknown node type")
}

// VerifyRange checks an answer to the range query [lo, hi]: the verify
// function checks the owner's signature over the certification digest.
// On success the answer is authentic (every tuple is owner-certified)
// and complete (no qualifying tuple was dropped).
func VerifyRange(res *Result, lo, hi int64, verify func(msg, sig []byte) error) error {
	if res == nil || res.VO == nil {
		return fmt.Errorf("%w: missing VO", ErrVerify)
	}
	// 1. Owner signature over the root certification.
	cd := res.Cert.CertDigest()
	if err := verify(cd[:], res.Cert.Sig); err != nil {
		return fmt.Errorf("%w: root certification: %v", ErrVerify, err)
	}
	// 2. Tuple span sanity: strictly sorted; interior tuples inside
	// [lo,hi]; boundary tuples outside.
	tu := res.Tuples
	for i := 1; i < len(tu); i++ {
		if tu[i].Key <= tu[i-1].Key {
			return fmt.Errorf("%w: tuples not strictly sorted", ErrVerify)
		}
	}
	start, end := 0, len(tu)
	if !res.LeftEdge {
		if len(tu) == 0 || tu[0].Key >= lo {
			return fmt.Errorf("%w: missing left boundary", ErrVerify)
		}
		start = 1
	}
	if !res.RightEdge {
		if len(tu) == 0 || tu[len(tu)-1].Key <= hi {
			return fmt.Errorf("%w: missing right boundary", ErrVerify)
		}
		end = len(tu) - 1
	}
	for _, e := range tu[start:end] {
		if e.Key < lo || e.Key > hi {
			return fmt.Errorf("%w: tuple %d outside query range", ErrVerify, e.Key)
		}
	}
	if start > end {
		return fmt.Errorf("%w: boundary tuples overlap", ErrVerify)
	}
	// 3. Recompute the root digest from the tuples and the VO.
	stream := tu
	root, leftSpine, rightSpine, err := verifyVO(res.VO, &stream)
	if err != nil {
		return err
	}
	if len(stream) != 0 {
		return fmt.Errorf("%w: %d unconsumed tuples", ErrVerify, len(stream))
	}
	if root != res.Cert.Root {
		return fmt.Errorf("%w: recomputed root does not match certification", ErrVerify)
	}
	// 4. Edge claims must be structural: the span must reach the first
	// (last) slot at every level.
	if res.LeftEdge && !leftSpine {
		return fmt.Errorf("%w: left-edge claim not supported by VO", ErrVerify)
	}
	if res.RightEdge && !rightSpine {
		return fmt.Errorf("%w: right-edge claim not supported by VO", ErrVerify)
	}
	return nil
}

// verifyVO recomputes the digest of one node, consuming tuples from the
// stream. It also reports whether the covered span is flush with the
// node's left and right edges (for domain-edge verification).
func verifyVO(vo *VO, stream *[]LeafEntry) (d digest.Digest, leftFlush, rightFlush bool, err error) {
	if vo == nil {
		return digest.Digest{}, false, false, fmt.Errorf("%w: nil VO node", ErrVerify)
	}
	if vo.N == 0 { // empty leaf (empty relation)
		return mht.Root(nil), true, true, nil
	}
	if vo.B < vo.A { // uncovered leaf encoded as a single opaque digest
		if len(vo.Proof) != 1 {
			return digest.Digest{}, false, false, fmt.Errorf("%w: bad empty-span proof", ErrVerify)
		}
		return vo.Proof[0], false, false, nil
	}
	if vo.Children == nil {
		// Leaf: consume B-A+1 tuples.
		count := vo.B - vo.A + 1
		if len(*stream) < count {
			return digest.Digest{}, false, false, fmt.Errorf("%w: tuple stream exhausted", ErrVerify)
		}
		window := make([]digest.Digest, count)
		for i := 0; i < count; i++ {
			window[i] = (*stream)[i].digest()
		}
		*stream = (*stream)[count:]
		root, err := mht.VerifyRange(vo.N, vo.A, vo.B, window, vo.Proof)
		if err != nil {
			return digest.Digest{}, false, false, fmt.Errorf("%w: leaf proof: %v", ErrVerify, err)
		}
		return root, vo.A == 0, vo.B == vo.N-1, nil
	}
	// Internal: recurse into covered children.
	if len(vo.Children) != vo.B-vo.A+1 {
		return digest.Digest{}, false, false, fmt.Errorf("%w: child count mismatch", ErrVerify)
	}
	window := make([]digest.Digest, len(vo.Children))
	childLeft, childRight := false, false
	for i, c := range vo.Children {
		cd, lf, rf, err := verifyVO(c, stream)
		if err != nil {
			return digest.Digest{}, false, false, err
		}
		if i == 0 {
			childLeft = lf
		}
		if i == len(vo.Children)-1 {
			childRight = rf
		}
		window[i] = cd
	}
	root, err := mht.VerifyRange(vo.N, vo.A, vo.B, window, vo.Proof)
	if err != nil {
		return digest.Digest{}, false, false, fmt.Errorf("%w: inner proof: %v", ErrVerify, err)
	}
	return root, vo.A == 0 && childLeft, vo.B == vo.N-1 && childRight, nil
}
