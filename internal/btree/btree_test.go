package btree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"authdb/internal/storage"
)

func testTree(t *testing.T, leafCap, fanout int) *Tree {
	t.Helper()
	return New(storage.DefaultPageConfig(), WithCapacities(leafCap, fanout))
}

func TestInsertGet(t *testing.T) {
	tr := testTree(t, 4, 4)
	for i := 0; i < 100; i++ {
		if err := tr.Insert(Entry{Key: int64(i * 2), RID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tr.Len())
	}
	for i := 0; i < 100; i++ {
		e, ok := tr.Get(int64(i * 2))
		if !ok || e.RID != uint64(i) {
			t.Fatalf("Get(%d) = %v,%v", i*2, e, ok)
		}
	}
	if _, ok := tr.Get(1); ok {
		t.Fatal("Get of absent key succeeded")
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDuplicate(t *testing.T) {
	tr := testTree(t, 4, 4)
	if err := tr.Insert(Entry{Key: 5}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(Entry{Key: 5}); err == nil {
		t.Fatal("duplicate insert must fail")
	}
}

func TestInsertRandomOrder(t *testing.T) {
	tr := testTree(t, 4, 4)
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(500)
	for _, k := range perm {
		if err := tr.Insert(Entry{Key: int64(k), RID: uint64(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	got := 0
	tr.Scan(func(e Entry) bool { got++; return true })
	if got != 500 {
		t.Fatalf("Scan saw %d entries, want 500", got)
	}
}

func TestUpdate(t *testing.T) {
	tr := testTree(t, 4, 4)
	tr.Insert(Entry{Key: 1, Sig: []byte("old")})
	if !tr.Update(1, []byte("new")) {
		t.Fatal("Update failed")
	}
	e, _ := tr.Get(1)
	if string(e.Sig) != "new" {
		t.Fatalf("Sig = %q", e.Sig)
	}
	if tr.Update(99, []byte("x")) {
		t.Fatal("Update of absent key succeeded")
	}
}

func TestDelete(t *testing.T) {
	tr := testTree(t, 4, 4)
	for i := 0; i < 200; i++ {
		tr.Insert(Entry{Key: int64(i), RID: uint64(i)})
	}
	for i := 0; i < 200; i += 2 {
		e, ok := tr.Delete(int64(i))
		if !ok || e.RID != uint64(i) {
			t.Fatalf("Delete(%d) = %v,%v", i, e, ok)
		}
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tr.Len())
	}
	for i := 0; i < 200; i++ {
		_, ok := tr.Get(int64(i))
		if (i%2 == 0) == ok {
			t.Fatalf("Get(%d) = %v after deletes", i, ok)
		}
	}
	if _, ok := tr.Delete(4); ok {
		t.Fatal("double delete succeeded")
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAll(t *testing.T) {
	tr := testTree(t, 3, 3)
	for i := 0; i < 50; i++ {
		tr.Insert(Entry{Key: int64(i)})
	}
	for i := 49; i >= 0; i-- {
		if _, ok := tr.Delete(int64(i)); !ok {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// Tree must still be usable.
	if err := tr.Insert(Entry{Key: 7}); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.Get(7); !ok {
		t.Fatal("insert after drain failed")
	}
}

func TestRangeWithBoundaries(t *testing.T) {
	tr := testTree(t, 4, 4)
	for i := 0; i < 100; i++ {
		tr.Insert(Entry{Key: int64(i * 10)})
	}
	entries, left, right := tr.RangeWithBoundaries(250, 400)
	if len(entries) != 16 { // 250..400 step 10
		t.Fatalf("got %d entries, want 16", len(entries))
	}
	if entries[0].Key != 250 || entries[len(entries)-1].Key != 400 {
		t.Fatalf("range [%d,%d]", entries[0].Key, entries[len(entries)-1].Key)
	}
	if left == nil || left.Key != 240 {
		t.Fatalf("left boundary = %v, want 240", left)
	}
	if right == nil || right.Key != 410 {
		t.Fatalf("right boundary = %v, want 410", right)
	}
}

func TestRangeBoundariesAtDomainEdges(t *testing.T) {
	tr := testTree(t, 4, 4)
	for i := 0; i < 10; i++ {
		tr.Insert(Entry{Key: int64(i)})
	}
	entries, left, right := tr.RangeWithBoundaries(0, 9)
	if len(entries) != 10 || left != nil || right != nil {
		t.Fatalf("whole-domain range: %d entries, left=%v right=%v", len(entries), left, right)
	}
	entries, left, right = tr.RangeWithBoundaries(-5, -1)
	if len(entries) != 0 || left != nil || right == nil || right.Key != 0 {
		t.Fatalf("below-domain range: %d entries, left=%v right=%v", len(entries), left, right)
	}
	entries, left, right = tr.RangeWithBoundaries(100, 200)
	if len(entries) != 0 || left == nil || left.Key != 9 || right != nil {
		t.Fatalf("above-domain range: %d entries, left=%v right=%v", len(entries), left, right)
	}
}

func TestRangeEmptyInterval(t *testing.T) {
	tr := testTree(t, 4, 4)
	tr.Insert(Entry{Key: 1})
	if got, left, right := tr.RangeWithBoundaries(5, 2); got != nil || left != nil || right != nil {
		t.Fatalf("inverted range returned %v between %v and %v", got, left, right)
	}
}

func TestRangeBoundaryAcrossLeaves(t *testing.T) {
	// Force the range start to be the first entry of a leaf so the left
	// boundary comes from the previous leaf.
	tr := testTree(t, 2, 3)
	for i := 0; i < 20; i++ {
		tr.Insert(Entry{Key: int64(i)})
	}
	_, left, _ := tr.RangeWithBoundaries(10, 12)
	if left == nil || left.Key != 9 {
		t.Fatalf("left = %v, want 9", left)
	}
}

// TestRangeAllocs: a range costs its result slice and the two boundary
// copies, not an Entry per row (the loop variable whose address became the
// right boundary used to escape on every iteration, on top of the slice
// doubling from nil).
func TestRangeAllocs(t *testing.T) {
	tr := New(storage.DefaultPageConfig())
	for i := 0; i < 5000; i++ {
		if err := tr.Insert(Entry{Key: int64(2 * i), RID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var entries []Entry
	var left, right *Entry
	allocs := testing.AllocsPerRun(50, func() {
		entries, left, right = tr.RangeWithBoundaries(4000, 4198)
	})
	if len(entries) != 100 || left == nil || left.Key != 3998 || right == nil || right.Key != 4200 {
		t.Fatalf("%d entries, boundaries %v and %v", len(entries), left, right)
	}
	if allocs > 3 {
		t.Fatalf("a 100-row range allocates %v times, want at most 3", allocs)
	}
}

func TestPredecessorSuccessor(t *testing.T) {
	tr := testTree(t, 3, 3)
	for _, k := range []int64{10, 20, 30, 40} {
		tr.Insert(Entry{Key: k})
	}
	if p, ok := tr.Predecessor(25); !ok || p.Key != 20 {
		t.Fatalf("Predecessor(25) = %v,%v", p, ok)
	}
	if p, ok := tr.Predecessor(20); !ok || p.Key != 10 {
		t.Fatalf("Predecessor(20) = %v,%v", p, ok)
	}
	if _, ok := tr.Predecessor(10); ok {
		t.Fatal("Predecessor of min must not exist")
	}
	if s, ok := tr.Successor(25); !ok || s.Key != 30 {
		t.Fatalf("Successor(25) = %v,%v", s, ok)
	}
	if s, ok := tr.Successor(30); !ok || s.Key != 40 {
		t.Fatalf("Successor(30) = %v,%v", s, ok)
	}
	if _, ok := tr.Successor(40); ok {
		t.Fatal("Successor of max must not exist")
	}
}

func TestBulkLoad(t *testing.T) {
	cfg := storage.DefaultPageConfig()
	entries := make([]Entry, 10000)
	for i := range entries {
		entries[i] = Entry{Key: int64(i), RID: uint64(i)}
	}
	tr, err := BulkLoad(cfg, entries)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 10000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{0, 1, 4999, 9999} {
		if _, ok := tr.Get(k); !ok {
			t.Fatalf("Get(%d) failed after bulk load", k)
		}
	}
	// Bulk-loaded tree must accept further inserts.
	if err := tr.Insert(Entry{Key: 100000}); err != nil {
		t.Fatal(err)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	cfg := storage.DefaultPageConfig()
	if _, err := BulkLoad(cfg, []Entry{{Key: 2}, {Key: 1}}); err == nil {
		t.Fatal("unsorted bulk load must fail")
	}
	if _, err := BulkLoad(cfg, []Entry{{Key: 2}, {Key: 2}}); err == nil {
		t.Fatal("duplicate bulk load must fail")
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	tr, err := BulkLoad(storage.DefaultPageConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Fatal("empty bulk load must give empty tree")
	}
}

func TestTable1Heights(t *testing.T) {
	// Table 1 of the paper: heights of ASign vs EMB-tree.
	cfg := storage.DefaultPageConfig()
	cases := []struct {
		n          int64
		asign, emb int
	}{
		{10_000, 1, 2},
		{100_000, 2, 2},
		{1_000_000, 2, 3},
		{10_000_000, 2, 3},
		{100_000_000, 3, 4},
	}
	for _, c := range cases {
		if got := cfg.HeightASign(c.n); got != c.asign {
			t.Errorf("HeightASign(%d) = %d, want %d", c.n, got, c.asign)
		}
		if got := cfg.HeightEMB(c.n); got != c.emb {
			t.Errorf("HeightEMB(%d) = %d, want %d", c.n, got, c.emb)
		}
	}
}

func TestBuiltHeightMatchesFormula(t *testing.T) {
	// A real bulk-loaded tree at paper fanouts must match the analytic
	// height for N it can afford to build.
	cfg := storage.DefaultPageConfig()
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{Key: int64(i)}
		}
		tr, err := BulkLoad(cfg, entries)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tr.Height(), cfg.HeightASign(int64(n)); got != want {
			t.Errorf("built height at N=%d is %d, formula says %d", n, got, want)
		}
	}
}

func TestPageCapacities(t *testing.T) {
	cfg := storage.DefaultPageConfig()
	if got := cfg.LeafCapacityASign(); got != 146 {
		t.Errorf("leaf capacity = %d, want 146 (paper §3.2)", got)
	}
	if got := cfg.InternalFanoutASign(); got != 512 {
		t.Errorf("ASign fanout = %d, want 512", got)
	}
	if got := cfg.InternalFanoutEMB(); got != 146 {
		t.Errorf("EMB fanout = %d, want 146 (97 effective)", got)
	}
}

func TestQuickInsertDeleteConsistency(t *testing.T) {
	prop := func(keys []int16) bool {
		tr := New(storage.DefaultPageConfig(), WithCapacities(3, 4))
		ref := map[int64]bool{}
		for _, k := range keys {
			key := int64(k)
			if ref[key] {
				tr.Delete(key)
				delete(ref, key)
			} else {
				if err := tr.Insert(Entry{Key: key}); err != nil {
					return false
				}
				ref[key] = true
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		for k := range ref {
			if _, ok := tr.Get(k); !ok {
				return false
			}
		}
		return tr.checkInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRangeMatchesNaive(t *testing.T) {
	prop := func(keys []int16, loRaw, hiRaw int16) bool {
		lo, hi := int64(loRaw), int64(hiRaw)
		if lo > hi {
			lo, hi = hi, lo
		}
		tr := New(storage.DefaultPageConfig(), WithCapacities(4, 4))
		seen := map[int64]bool{}
		for _, k := range keys {
			if !seen[int64(k)] {
				seen[int64(k)] = true
				tr.Insert(Entry{Key: int64(k)})
			}
		}
		want := 0
		var below, above *int64 // the naive boundaries: nearest keys outside [lo, hi]
		for k := range seen {
			switch {
			case k < lo:
				if below == nil || k > *below {
					below = &k
				}
			case k > hi:
				if above == nil || k < *above {
					above = &k
				}
			default:
				want++
			}
		}
		got, left, right := tr.RangeWithBoundaries(lo, hi)
		if len(got) != want {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].Key <= got[i-1].Key {
				return false
			}
		}
		sameBoundary := func(e *Entry, k *int64) bool {
			return (e == nil) == (k == nil) && (e == nil || e.Key == *k)
		}
		return sameBoundary(left, below) && sameBoundary(right, above)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
