// The Merkle hash tree lives in internal/repro/embtree/mht, beside the
// EMB-tree baseline that is its only user; its tests keep the names they
// had while it was a package of its own.
package mht_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"authdb/internal/digest"
	"authdb/internal/repro/embtree/mht"
)

func mkLeaves(n int) []digest.Digest {
	ls := make([]digest.Digest, n)
	for i := range ls {
		ls[i] = digest.Sum([]byte(fmt.Sprintf("leaf-%d", i)))
	}
	return ls
}

func TestRootDeterministic(t *testing.T) {
	ls := mkLeaves(7)
	if mht.Root(ls) != mht.Root(ls) {
		t.Fatal("Root not deterministic")
	}
}

func TestRootFigure1(t *testing.T) {
	// Four messages as in Figure 1: N1234 = h(h(N1|N2)|h(N3|N4)).
	ls := mkLeaves(4)
	want := mht.Combine(mht.Combine(ls[0], ls[1]), mht.Combine(ls[2], ls[3]))
	if mht.Root(ls) != want {
		t.Fatal("4-leaf root does not match Figure 1 structure")
	}
}

func TestRootSensitiveToAnyLeaf(t *testing.T) {
	ls := mkLeaves(9)
	r := mht.Root(ls)
	for i := range ls {
		mod := make([]digest.Digest, len(ls))
		copy(mod, ls)
		mod[i] = digest.Sum([]byte("tampered"))
		if mht.Root(mod) == r {
			t.Fatalf("root insensitive to leaf %d", i)
		}
	}
}

func TestSingleLeafProof(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 97} {
		ls := mkLeaves(n)
		root := mht.Root(ls)
		for i := 0; i < n; i++ {
			proof, err := mht.Prove(ls, i)
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			got, err := mht.Verify(n, i, ls[i], proof)
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			if got != root {
				t.Fatalf("n=%d i=%d: root mismatch", n, i)
			}
		}
	}
}

func TestRangeProofAllRanges(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 11} {
		ls := mkLeaves(n)
		root := mht.Root(ls)
		for a := 0; a < n; a++ {
			for b := a; b < n; b++ {
				proof, err := mht.ProveRange(ls, a, b)
				if err != nil {
					t.Fatalf("n=%d [%d,%d]: %v", n, a, b, err)
				}
				got, err := mht.VerifyRange(n, a, b, ls[a:b+1], proof)
				if err != nil {
					t.Fatalf("n=%d [%d,%d]: %v", n, a, b, err)
				}
				if got != root {
					t.Fatalf("n=%d [%d,%d]: root mismatch", n, a, b)
				}
				if len(proof) != mht.ProofSize(n, a, b) {
					t.Fatalf("ProofSize wrong for n=%d [%d,%d]", n, a, b)
				}
			}
		}
	}
}

func TestVerifyRejectsTamperedWindow(t *testing.T) {
	ls := mkLeaves(16)
	root := mht.Root(ls)
	proof, _ := mht.ProveRange(ls, 3, 6)
	window := make([]digest.Digest, 4)
	copy(window, ls[3:7])
	window[1] = digest.Sum([]byte("evil"))
	got, err := mht.VerifyRange(16, 3, 6, window, proof)
	if err == nil && got == root {
		t.Fatal("tampered window verified")
	}
}

func TestVerifyRejectsWrongShape(t *testing.T) {
	ls := mkLeaves(8)
	proof, _ := mht.ProveRange(ls, 2, 4)
	if _, err := mht.VerifyRange(8, 2, 5, ls[2:6], proof); err == nil {
		t.Fatal("wrong range with mismatched proof must error or mismatch")
	}
	if _, err := mht.VerifyRange(8, 2, 4, ls[2:4], proof); err == nil {
		t.Fatal("short window must fail")
	}
	if _, err := mht.VerifyRange(8, 2, 4, ls[2:5], proof[:1]); err == nil {
		t.Fatal("short proof must fail")
	}
	if _, err := mht.VerifyRange(8, 5, 2, nil, nil); err == nil {
		t.Fatal("inverted range must fail")
	}
}

func TestProveRangeBadArgs(t *testing.T) {
	ls := mkLeaves(4)
	if _, err := mht.ProveRange(ls, -1, 2); err == nil {
		t.Fatal("negative index must fail")
	}
	if _, err := mht.ProveRange(ls, 0, 4); err == nil {
		t.Fatal("out-of-range index must fail")
	}
}

func TestProofSizeLogarithmic(t *testing.T) {
	// Single-leaf proof in an n-leaf balanced tree has ~log2(n) digests.
	n := 1024
	if got := mht.ProofSize(n, 500, 500); got != 10 {
		t.Fatalf("point proof size = %d, want 10", got)
	}
	// Full-range proof is empty.
	if got := mht.ProofSize(n, 0, n-1); got != 0 {
		t.Fatalf("full-range proof size = %d, want 0", got)
	}
}

func TestEmptyTree(t *testing.T) {
	if mht.Root(nil) != digest.Sum(nil) {
		t.Fatal("empty tree root must be h(empty)")
	}
}

func TestQuickRangeProofSound(t *testing.T) {
	prop := func(seed uint8, aRaw, bRaw uint8) bool {
		n := int(seed%60) + 1
		a := int(aRaw) % n
		b := int(bRaw) % n
		if a > b {
			a, b = b, a
		}
		ls := mkLeaves(n)
		proof, err := mht.ProveRange(ls, a, b)
		if err != nil {
			return false
		}
		got, err := mht.VerifyRange(n, a, b, ls[a:b+1], proof)
		return err == nil && got == mht.Root(ls)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
