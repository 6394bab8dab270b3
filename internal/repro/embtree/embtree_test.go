package embtree

import (
	"bytes"
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"testing"
	"testing/quick"

	"authdb/internal/digest"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/storage"
)

// testSigner returns sign/verify closures over a BAS key (pairing cost
// disabled for speed).
func testSigner(t *testing.T) (func([]byte) ([]byte, error), func(msg, sig []byte) error) {
	t.Helper()
	scheme := bas.New(0)
	priv, pub, err := scheme.KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sign := func(msg []byte) ([]byte, error) {
		s, err := scheme.Sign(priv, msg)
		return []byte(s), err
	}
	verify := func(msg, sig []byte) error {
		return scheme.Verify(pub, msg, sigagg.Signature(sig))
	}
	return sign, verify
}

func recDig(i int64) digest.Digest {
	return digest.Sum([]byte(fmt.Sprintf("record-%d", i)))
}

func buildTree(t *testing.T, n int, opts ...Option) *Tree {
	t.Helper()
	entries := make([]LeafEntry, n)
	for i := range entries {
		entries[i] = LeafEntry{Key: int64(i * 10), RID: uint64(i), RecDigest: recDig(int64(i))}
	}
	tr, err := BulkLoad(storage.DefaultPageConfig(), entries, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestInsertGetDelete(t *testing.T) {
	tr := New(storage.DefaultPageConfig(), WithCapacities(4, 4))
	for i := 0; i < 300; i++ {
		if err := tr.Insert(LeafEntry{Key: int64(i), RecDigest: recDig(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 300 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < 300; i += 3 {
		if _, ok := tr.Get(int64(i)); !ok {
			t.Fatalf("Get(%d) failed", i)
		}
	}
	root := tr.RootDigest()
	if _, ok := tr.Delete(150); !ok {
		t.Fatal("Delete failed")
	}
	if tr.RootDigest() == root {
		t.Fatal("delete must change the root digest")
	}
	if _, ok := tr.Get(150); ok {
		t.Fatal("deleted key still present")
	}
}

func TestDuplicateInsert(t *testing.T) {
	tr := New(storage.DefaultPageConfig(), WithCapacities(4, 4))
	tr.Insert(LeafEntry{Key: 1})
	if err := tr.Insert(LeafEntry{Key: 1}); err == nil {
		t.Fatal("duplicate insert must fail")
	}
}

func TestUpdatePropagatesToRoot(t *testing.T) {
	tr := buildTree(t, 5000, WithCapacities(8, 8))
	r1 := tr.RootDigest()
	if !tr.UpdateRecord(250*10, digest.Sum([]byte("new"))) {
		t.Fatal("UpdateRecord failed")
	}
	if tr.RootDigest() == r1 {
		t.Fatal("root digest unchanged after update")
	}
	if tr.UpdateRecord(999999, digest.Sum([]byte("x"))) {
		t.Fatal("update of absent key succeeded")
	}
}

func TestCertifyAndQueryVerify(t *testing.T) {
	sign, verify := testSigner(t)
	tr := buildTree(t, 2000, WithCapacities(8, 8))
	cert, err := tr.Certify(100, sign)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.RangeQuery(500, 1500, cert)
	if err != nil {
		t.Fatal(err)
	}
	// 101 qualifying tuples (keys 500..1500 step 10) + 2 boundaries.
	if len(res.Tuples) != 103 {
		t.Fatalf("got %d tuples, want 103", len(res.Tuples))
	}
	if err := VerifyRange(res, 500, 1500, verify); err != nil {
		t.Fatalf("VerifyRange: %v", err)
	}
}

func TestVerifyDetectsDroppedTuple(t *testing.T) {
	sign, verify := testSigner(t)
	tr := buildTree(t, 500, WithCapacities(8, 8))
	cert, _ := tr.Certify(1, sign)
	res, err := tr.RangeQuery(100, 400, cert)
	if err != nil {
		t.Fatal(err)
	}
	// Drop an interior tuple (completeness attack).
	res.Tuples = append(res.Tuples[:5:5], res.Tuples[6:]...)
	if err := VerifyRange(res, 100, 400, verify); err == nil {
		t.Fatal("dropped tuple went undetected")
	}
}

func TestVerifyDetectsTamperedValue(t *testing.T) {
	sign, verify := testSigner(t)
	tr := buildTree(t, 500, WithCapacities(8, 8))
	cert, _ := tr.Certify(1, sign)
	res, _ := tr.RangeQuery(100, 400, cert)
	res.Tuples[3].RecDigest = digest.Sum([]byte("forged"))
	if err := VerifyRange(res, 100, 400, verify); err == nil {
		t.Fatal("tampered record went undetected")
	}
}

func TestVerifyDetectsStaleCert(t *testing.T) {
	sign, verify := testSigner(t)
	tr := buildTree(t, 500, WithCapacities(8, 8))
	staleCert, _ := tr.Certify(1, sign)
	tr.UpdateRecord(100, digest.Sum([]byte("v2")))
	res, _ := tr.RangeQuery(50, 200, staleCert)
	// Server answers from the fresh tree but presents the stale cert.
	if err := VerifyRange(res, 50, 200, verify); err == nil {
		t.Fatal("stale certification went undetected")
	}
}

func TestVerifyDetectsForgedCert(t *testing.T) {
	sign, verify := testSigner(t)
	tr := buildTree(t, 100, WithCapacities(8, 8))
	cert, _ := tr.Certify(1, sign)
	cert.Sig = bytes.Repeat([]byte{0x42}, len(cert.Sig))
	res, _ := tr.RangeQuery(10, 50, cert)
	if err := VerifyRange(res, 10, 50, verify); err == nil {
		t.Fatal("forged certification went undetected")
	}
}

func TestVerifyDomainEdges(t *testing.T) {
	sign, verify := testSigner(t)
	tr := buildTree(t, 100, WithCapacities(8, 8))
	cert, _ := tr.Certify(1, sign)

	// Query covering the whole domain: both edges, no boundary tuples.
	res, err := tr.RangeQuery(-1000, 100000, cert)
	if err != nil {
		t.Fatal(err)
	}
	if !res.LeftEdge || !res.RightEdge {
		t.Fatal("whole-domain query must flag both edges")
	}
	if len(res.Tuples) != 100 {
		t.Fatalf("got %d tuples, want 100", len(res.Tuples))
	}
	if err := VerifyRange(res, -1000, 100000, verify); err != nil {
		t.Fatalf("VerifyRange: %v", err)
	}

	// Query entirely below the domain: empty answer with right boundary.
	res, err = tr.RangeQuery(-50, -10, cert)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRange(res, -50, -10, verify); err != nil {
		t.Fatalf("empty-answer verification: %v", err)
	}
	if got := len(res.Tuples); got != 1 {
		t.Fatalf("below-domain answer has %d tuples, want 1 boundary", got)
	}
}

func TestVerifyRejectsFakeEdgeClaim(t *testing.T) {
	sign, verify := testSigner(t)
	tr := buildTree(t, 100, WithCapacities(8, 8))
	cert, _ := tr.Certify(1, sign)
	res, _ := tr.RangeQuery(500, 700, cert)
	if res.LeftEdge {
		t.Fatal("interior query should not touch the left edge")
	}
	// Malicious server drops the left boundary tuple and claims the range
	// starts at the domain edge.
	res.Tuples = res.Tuples[1:]
	res.LeftEdge = true
	if err := VerifyRange(res, 500, 700, verify); err == nil {
		t.Fatal("fake edge claim went undetected")
	}
}

func TestPointQuery(t *testing.T) {
	sign, verify := testSigner(t)
	tr := buildTree(t, 1000, WithCapacities(16, 16))
	cert, _ := tr.Certify(1, sign)
	res, err := tr.RangeQuery(5000, 5000, cert)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 3 { // match + 2 boundaries
		t.Fatalf("point query returned %d tuples, want 3", len(res.Tuples))
	}
	if err := VerifyRange(res, 5000, 5000, verify); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTreeQuery(t *testing.T) {
	sign, verify := testSigner(t)
	tr := New(storage.DefaultPageConfig())
	cert, _ := tr.Certify(1, sign)
	res, err := tr.RangeQuery(1, 10, cert)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 0 {
		t.Fatal("empty tree returned tuples")
	}
	if err := VerifyRange(res, 1, 10, verify); err != nil {
		t.Fatalf("empty-tree verification: %v", err)
	}
}

func TestVOSizeGrowsWithHeightNotRange(t *testing.T) {
	sign, _ := testSigner(t)
	tr := buildTree(t, 20000, WithCapacities(16, 16))
	cert, _ := tr.Certify(1, sign)
	resPoint, _ := tr.RangeQuery(100000, 100000, cert)
	resRange, _ := tr.RangeQuery(100000, 110000, cert)
	if resPoint.VO.SizeBytes() <= 0 {
		t.Fatal("VO size must be positive")
	}
	// A 1000-tuple range should not cost 1000x the point VO: proof
	// digests amortize across the contiguous span.
	if resRange.VO.SizeBytes() > 20*resPoint.VO.SizeBytes() {
		t.Fatalf("range VO %dB vs point VO %dB: no amortization",
			resRange.VO.SizeBytes(), resPoint.VO.SizeBytes())
	}
}

func TestInsertAfterBulkLoadKeepsVerifiability(t *testing.T) {
	sign, verify := testSigner(t)
	tr := buildTree(t, 300, WithCapacities(8, 8))
	for i := 0; i < 50; i++ {
		if err := tr.Insert(LeafEntry{Key: int64(i*10 + 5), RecDigest: recDig(int64(10000 + i))}); err != nil {
			t.Fatal(err)
		}
	}
	cert, _ := tr.Certify(2, sign)
	res, err := tr.RangeQuery(0, 500, cert)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRange(res, 0, 500, verify); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRandomRangesVerify(t *testing.T) {
	sign, verify := testSigner(t)
	tr := buildTree(t, 1000, WithCapacities(8, 8))
	cert, _ := tr.Certify(1, sign)
	rng := mrand.New(mrand.NewSource(5))
	prop := func() bool {
		lo := rng.Int63n(11000) - 500
		hi := lo + rng.Int63n(2000)
		res, err := tr.RangeQuery(lo, hi, cert)
		if err != nil {
			return false
		}
		return VerifyRange(res, lo, hi, verify) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHashOpsGrowWithUpdates(t *testing.T) {
	tr := buildTree(t, 10000, WithCapacities(16, 16))
	before := tr.HashOps()
	tr.UpdateRecord(500, digest.Sum([]byte("x")))
	if tr.HashOps() <= before {
		t.Fatal("update must cost hash operations")
	}
}
