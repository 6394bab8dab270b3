package bloom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := NewForCapacity(1000, 8)
	for i := 0; i < 1000; i++ {
		f.AddUint64(uint64(i * 3))
	}
	for i := 0; i < 1000; i++ {
		if !f.MayContainUint64(uint64(i * 3)) {
			t.Fatalf("false negative for %d", i*3)
		}
	}
}

func TestFPRateNearModel(t *testing.T) {
	const n = 5000
	f := NewForCapacity(n, 8)
	for i := 0; i < n; i++ {
		f.AddUint64(uint64(i))
	}
	rng := rand.New(rand.NewSource(42))
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		v := uint64(n) + uint64(rng.Int63n(1<<40))
		if f.MayContainUint64(v) {
			fp++
		}
	}
	got := float64(fp) / probes
	want := f.FPRate()
	if got > 3*want+0.01 {
		t.Fatalf("empirical FP rate %.4f far above model %.4f", got, want)
	}
}

func TestFPRateEquation(t *testing.T) {
	// Eq. 1 at optimal k reduces to 0.6185^(m/b).
	m, b := uint64(8000), 1000
	k := OptimalK(m, b)
	eq1 := FPRate(m, b, k)
	closed := FPRateOptimal(m, b)
	if math.Abs(eq1-closed) > 0.01 {
		t.Fatalf("Eq.1 %.4f vs closed form %.4f", eq1, closed)
	}
	// Paper's number: m/IB = 8 gives FP = 0.0216.
	if math.Abs(closed-0.0216) > 0.002 {
		t.Fatalf("FP at 8 bits/key = %.4f, paper says 0.0216", closed)
	}
}

func TestOptimalK(t *testing.T) {
	if k := OptimalK(8000, 1000); k != 6 {
		t.Fatalf("OptimalK(8000,1000) = %d, want 6 (8·ln2 ≈ 5.5 → 6)", k)
	}
	if k := OptimalK(10, 0); k != 1 {
		t.Fatalf("OptimalK with n=0 must be 1, got %d", k)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := NewForCapacity(100, 10)
	for i := 0; i < 100; i++ {
		f.AddUint64(uint64(i * 7))
	}
	g, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(g) {
		t.Fatal("round-trip changed the filter")
	}
	if f.Digest() != g.Digest() {
		t.Fatal("round-trip changed the digest")
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated input must fail")
	}
	f := New(64, 2)
	data := f.Marshal()
	if _, err := Unmarshal(data[:len(data)-1]); err == nil {
		t.Fatal("short input must fail")
	}
	// m = 0 used to index past the data; k = 0 decoded to a filter that
	// marshals differently. Neither is a filter Marshal writes.
	if _, err := Unmarshal(make([]byte, 24)); err == nil {
		t.Fatal("m = 0 must fail")
	}
	wrapped := make([]byte, 24)
	copy(wrapped, "\xff\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00\x00\x00\x00\x01")
	if _, err := Unmarshal(wrapped); err == nil {
		t.Fatal("m = 2^64-1 in 24 bytes must fail")
	}
	noHash := New(64, 1).Marshal()
	noHash[15] = 0
	if _, err := Unmarshal(noHash); err == nil {
		t.Fatal("k = 0 must fail")
	}
}

func TestDigestBindsContents(t *testing.T) {
	f := New(128, 3)
	g := New(128, 3)
	f.AddUint64(1)
	g.AddUint64(2)
	if f.Digest() == g.Digest() {
		t.Fatal("different contents, same digest")
	}
}

func TestQuickNoFalseNegative(t *testing.T) {
	prop := func(keys []uint64) bool {
		f := NewForCapacity(len(keys)+1, 8)
		for _, k := range keys {
			f.AddUint64(k)
		}
		for _, k := range keys {
			if !f.MayContainUint64(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildPartitioned(t *testing.T) {
	// 20 distinct values, 4 per partition -> 5 partitions.
	keys := make([]int64, 0, 40)
	for i := 0; i < 20; i++ {
		keys = append(keys, int64(i*10), int64(i*10)) // duplicates collapse
	}
	pf, err := BuildPartitioned(keys, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pf.P() != 5 {
		t.Fatalf("p = %d, want 5", pf.P())
	}
	if pf.Distinct() != 20 {
		t.Fatalf("IB = %d, want 20", pf.Distinct())
	}
	for i := 0; i < 20; i++ {
		if !pf.MayContain(int64(i * 10)) {
			t.Fatalf("false negative for %d", i*10)
		}
	}
}

func TestPartitionedFindCoversDomain(t *testing.T) {
	pf, err := BuildPartitioned([]int64{10, 20, 30, 40, 50, 60}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Every probe value maps to exactly one partition whose range holds it.
	for _, v := range []int64{-100, 0, 10, 15, 29, 30, 55, 60, 1000} {
		idx := pf.Find(v)
		if idx < 0 {
			t.Fatalf("Find(%d) = -1", v)
		}
		p := pf.Partitions[idx]
		if v < p.Lo || v >= p.Hi {
			t.Fatalf("Find(%d) -> partition [%d,%d)", v, p.Lo, p.Hi)
		}
	}
}

func TestPartitionBoundariesContiguous(t *testing.T) {
	pf, err := BuildPartitioned([]int64{1, 2, 3, 4, 5, 6, 7}, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < pf.P(); i++ {
		if pf.Partitions[i-1].Hi != pf.Partitions[i].Lo {
			t.Fatalf("gap between partitions %d and %d", i-1, i)
		}
	}
	if pf.Partitions[0].Lo != minInt64 || pf.Partitions[pf.P()-1].Hi != maxInt64 {
		t.Fatal("partitions must cover the whole domain")
	}
}

func TestPartitionDigestBindsBoundaries(t *testing.T) {
	f := New(64, 2)
	p1 := Partition{Lo: 0, Hi: 10, Filter: f}
	p2 := Partition{Lo: 0, Hi: 20, Filter: f}
	if p1.Digest() == p2.Digest() {
		t.Fatal("partition digest must bind the range")
	}
}

func TestEmptyPartitionedFilter(t *testing.T) {
	pf, err := BuildPartitioned(nil, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pf.P() != 0 {
		t.Fatalf("p = %d, want 0", pf.P())
	}
	if pf.Find(5) != -1 {
		t.Fatal("Find on empty filter must return -1")
	}
	if pf.MayContain(5) {
		t.Fatal("empty filter cannot contain anything")
	}
}

func TestBuildPartitionedRejectsBadArgs(t *testing.T) {
	if _, err := BuildPartitioned([]int64{1}, 0, 8); err == nil {
		t.Fatal("valuesPerPartition=0 must fail")
	}
}
