// Merkle node hashing lives with its only user, the EMB-tree baseline's
// hash tree (internal/repro/embtree/mht); its properties are digest's.
package digest_test

import (
	"testing"
	"testing/quick"

	"authdb/internal/digest"
	"authdb/internal/repro/embtree/mht"
)

func TestCombineOrderMatters(t *testing.T) {
	l, r := digest.Sum([]byte("l")), digest.Sum([]byte("r"))
	if mht.Combine(l, r) == mht.Combine(r, l) {
		t.Fatal("Combine must be order-sensitive")
	}
}

func TestQuickCombineNoCollision(t *testing.T) {
	f := func(a, b, c, d []byte) bool {
		l1, r1 := digest.Sum(a), digest.Sum(b)
		l2, r2 := digest.Sum(c), digest.Sum(d)
		if l1 == l2 && r1 == r2 {
			return mht.Combine(l1, r1) == mht.Combine(l2, r2)
		}
		return mht.Combine(l1, r1) != mht.Combine(l2, r2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
