// Package mht implements the Merkle hash tree of Merkle'89 (Figure 1 of
// the paper): a binary hash tree over a list of leaf digests, with proofs
// for single leaves and for contiguous leaf ranges.
//
// Range proofs are what the EMB-tree baseline (package embtree, this
// package's only importer) embeds in each B+-tree node: the proof for leaves [a,b] is the minimal set of
// sibling digests needed to recompute the root, consumed in a
// deterministic DFS order so no shape metadata needs to be transmitted.
package mht

import (
	"errors"
	"fmt"

	"authdb/internal/digest"
)

// ErrProof is returned when a proof is malformed or does not reproduce
// the expected root.
var ErrProof = errors.New("mht: invalid proof")

// Root computes the Merkle root of the leaf digests. The tree over a
// node covering leaves [lo,hi) splits at mid=(lo+hi)/2; a single leaf is
// its own digest; zero leaves hash the empty string.
func Root(leaves []digest.Digest) digest.Digest {
	if len(leaves) == 0 {
		return digest.Sum(nil)
	}
	return subRoot(leaves, 0, len(leaves))
}

func subRoot(leaves []digest.Digest, lo, hi int) digest.Digest {
	if hi-lo == 1 {
		return leaves[lo]
	}
	mid := (lo + hi) / 2
	return Combine(subRoot(leaves, lo, mid), subRoot(leaves, mid, hi))
}

// Combine hashes two child digests into a parent digest, as in a Merkle
// tree internal node: h(left | right).
func Combine(left, right digest.Digest) digest.Digest {
	var buf [2 * digest.Size]byte
	copy(buf[:digest.Size], left[:])
	copy(buf[digest.Size:], right[:])
	return digest.Sum(buf[:])
}

// ProveRange returns the proof for the contiguous leaf range [a, b]
// (inclusive): the digests of all maximal subtrees disjoint from the
// range, in DFS order.
func ProveRange(leaves []digest.Digest, a, b int) ([]digest.Digest, error) {
	if a < 0 || b >= len(leaves) || a > b {
		return nil, fmt.Errorf("mht: bad range [%d,%d] over %d leaves", a, b, len(leaves))
	}
	var proof []digest.Digest
	var walk func(lo, hi int)
	walk = func(lo, hi int) {
		if hi <= a || lo > b { // disjoint
			proof = append(proof, subRoot(leaves, lo, hi))
			return
		}
		if lo >= a && hi-1 <= b { // fully covered
			return
		}
		mid := (lo + hi) / 2
		walk(lo, mid)
		walk(mid, hi)
	}
	walk(0, len(leaves))
	return proof, nil
}

// VerifyRange recomputes the root of an n-leaf tree from the digests of
// leaves [a, b] (window, in leaf order) and a proof from ProveRange.
// The caller compares the returned root against the signed root.
func VerifyRange(n, a, b int, window []digest.Digest, proof []digest.Digest) (digest.Digest, error) {
	if a < 0 || b >= n || a > b {
		return digest.Digest{}, fmt.Errorf("%w: bad range [%d,%d] over %d leaves", ErrProof, a, b, n)
	}
	if len(window) != b-a+1 {
		return digest.Digest{}, fmt.Errorf("%w: window has %d digests, want %d", ErrProof, len(window), b-a+1)
	}
	wi, pi := 0, 0
	var walk func(lo, hi int) (digest.Digest, error)
	walk = func(lo, hi int) (digest.Digest, error) {
		if hi <= a || lo > b { // disjoint: consume proof
			if pi >= len(proof) {
				return digest.Digest{}, fmt.Errorf("%w: proof exhausted", ErrProof)
			}
			d := proof[pi]
			pi++
			return d, nil
		}
		if hi-lo == 1 { // covered leaf: consume window
			d := window[wi]
			wi++
			return d, nil
		}
		mid := (lo + hi) / 2
		l, err := walk(lo, mid)
		if err != nil {
			return digest.Digest{}, err
		}
		r, err := walk(mid, hi)
		if err != nil {
			return digest.Digest{}, err
		}
		return Combine(l, r), nil
	}
	root, err := walk(0, n)
	if err != nil {
		return digest.Digest{}, err
	}
	if pi != len(proof) || wi != len(window) {
		return digest.Digest{}, fmt.Errorf("%w: %d unused proof digests, %d unused window digests",
			ErrProof, len(proof)-pi, len(window)-wi)
	}
	return root, nil
}

// Prove returns the single-leaf proof for index i (the classic Merkle
// authentication path, as in Figure 1).
func Prove(leaves []digest.Digest, i int) ([]digest.Digest, error) {
	return ProveRange(leaves, i, i)
}

// Verify recomputes the root for leaf i of an n-leaf tree.
func Verify(n, i int, leaf digest.Digest, proof []digest.Digest) (digest.Digest, error) {
	return VerifyRange(n, i, i, []digest.Digest{leaf}, proof)
}

// ProofSize returns the number of digests in a range proof for [a, b] of
// an n-leaf tree, without materializing it. It equals the count of
// maximal subtrees disjoint from the range.
func ProofSize(n, a, b int) int {
	count := 0
	var walk func(lo, hi int)
	walk = func(lo, hi int) {
		if hi <= a || lo > b {
			count++
			return
		}
		if lo >= a && hi-1 <= b {
			return
		}
		mid := (lo + hi) / 2
		walk(lo, mid)
		walk(mid, hi)
	}
	walk(0, n)
	return count
}
