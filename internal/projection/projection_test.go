package projection

import (
	"crypto/rand"
	"errors"
	"fmt"
	"testing"

	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
)

type fixture struct {
	scheme sigagg.Scheme
	priv   sigagg.PrivateKey
	pub    sigagg.PublicKey
	attrs  map[uint64][][]byte
	sigs   map[uint64][]sigagg.Signature
}

func newFixture(t *testing.T, nRecords, nAttrs int) *fixture {
	t.Helper()
	scheme := bas.New(0)
	priv, pub, err := scheme.KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{scheme: scheme, priv: priv, pub: pub,
		attrs: map[uint64][][]byte{}, sigs: map[uint64][]sigagg.Signature{}}
	for r := 1; r <= nRecords; r++ {
		rid := uint64(r)
		attrs := make([][]byte, nAttrs)
		for i := range attrs {
			attrs[i] = []byte(fmt.Sprintf("r%d-a%d", r, i))
		}
		sigs, err := SignRecords(sigagg.NewPool(scheme, 1), priv, []uint64{rid}, [][][]byte{attrs}, []int64{100})
		if err != nil {
			t.Fatal(err)
		}
		f.attrs[rid] = attrs
		f.sigs[rid] = sigs[0]
	}
	return f
}

func (f *fixture) rows(attrIdxs []int, rids ...uint64) []Row {
	var rows []Row
	for _, rid := range rids {
		vals := make([][]byte, len(attrIdxs))
		for k, idx := range attrIdxs {
			vals[k] = f.attrs[rid][idx]
		}
		rows = append(rows, Row{RID: rid, TS: 100, Values: vals})
	}
	return rows
}

// ops prepares the stored attribute signatures of the given records, in
// order — what a server keeps next to each record.
func (f *fixture) ops(t *testing.T, rids ...uint64) [][]sigagg.Operand {
	t.Helper()
	out := make([][]sigagg.Operand, len(rids))
	for i, rid := range rids {
		ops, err := sigagg.PrepareAll(sigagg.FolderFor(f.scheme), f.sigs[rid])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ops
	}
	return out
}

func (f *fixture) build(t *testing.T, attrIdxs []int, rids ...uint64) *Answer {
	t.Helper()
	a, err := Build(f.scheme, attrIdxs, f.rows(attrIdxs, rids...), f.ops(t, rids...))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestHonestProjection(t *testing.T) {
	f := newFixture(t, 5, 6)
	a := f.build(t, []int{1, 3}, 1, 2, 3)
	if err := Verify(f.scheme, f.pub, a); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestNonContiguousAttributes(t *testing.T) {
	f := newFixture(t, 3, 8)
	a := f.build(t, []int{0, 2, 5, 7}, 1, 3)
	if err := Verify(f.scheme, f.pub, a); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// VO is a single signature regardless of attribute scatter.
	if len(a.Agg) != f.scheme.SignatureSize() {
		t.Fatal("projection VO must be one signature")
	}
}

func TestDetectsSwappedValuesBetweenRecords(t *testing.T) {
	f := newFixture(t, 2, 3)
	a := f.build(t, []int{1}, 1, 2)
	// Swap the attribute values of the two records; aggregation is
	// commutative, so only the rid binding in the digest catches this.
	a.Rows[0].Values[0], a.Rows[1].Values[0] = a.Rows[1].Values[0], a.Rows[0].Values[0]
	err := Verify(f.scheme, f.pub, a)
	if !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("swapped values: want ErrVerify, got %v", err)
	}
}

func TestDetectsSwappedAttributeSlots(t *testing.T) {
	f := newFixture(t, 1, 4)
	a := f.build(t, []int{0, 1}, 1)
	// Present attr 1's value in attr 0's slot and vice versa.
	a.Rows[0].Values[0], a.Rows[0].Values[1] = a.Rows[0].Values[1], a.Rows[0].Values[0]
	err := Verify(f.scheme, f.pub, a)
	if !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("swapped slots: want ErrVerify, got %v", err)
	}
}

func TestDetectsTamperedValue(t *testing.T) {
	f := newFixture(t, 2, 2)
	a := f.build(t, []int{0}, 1, 2)
	a.Rows[1].Values[0] = []byte("forged")
	err := Verify(f.scheme, f.pub, a)
	if !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("tampered value: want ErrVerify, got %v", err)
	}
}

func TestDetectsDroppedRow(t *testing.T) {
	f := newFixture(t, 3, 2)
	a := f.build(t, []int{0}, 1, 2, 3)
	a.Rows = a.Rows[:2] // aggregate still covers 3 rows
	err := Verify(f.scheme, f.pub, a)
	if !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("dropped row: want ErrVerify, got %v", err)
	}
}

func TestDetectsStaleTimestamp(t *testing.T) {
	f := newFixture(t, 1, 2)
	a := f.build(t, []int{0}, 1)
	a.Rows[0].TS = 99 // replayed older version claim
	err := Verify(f.scheme, f.pub, a)
	if !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("stale ts: want ErrVerify, got %v", err)
	}
}

func TestBuildRejectsBadAttrIndex(t *testing.T) {
	f := newFixture(t, 1, 2)
	rows := []Row{{RID: 1, TS: 100, Values: [][]byte{[]byte("x")}}}
	if _, err := Build(f.scheme, []int{5}, rows, f.ops(t, 1)); err == nil {
		t.Fatal("out-of-range attribute accepted")
	}
}

func TestVerifyRejectsMalformedRow(t *testing.T) {
	f := newFixture(t, 1, 3)
	a := f.build(t, []int{0, 1}, 1)
	a.Rows[0].Values = a.Rows[0].Values[:1]
	if err := Verify(f.scheme, f.pub, a); err == nil {
		t.Fatal("malformed row accepted")
	}
	if err := Verify(f.scheme, f.pub, nil); err == nil {
		t.Fatal("nil answer accepted")
	}
}

func TestEmptyProjection(t *testing.T) {
	f := newFixture(t, 1, 2)
	a := f.build(t, []int{0}) // zero rows
	if err := Verify(f.scheme, f.pub, a); err != nil {
		t.Fatalf("empty projection: %v", err)
	}
}

// BenchmarkProjectionBuild: the server side of one projected answer —
// 200 rows × 1 attribute on the real scheme, attribute signatures held
// prepared as a serving relation holds them.
func BenchmarkProjectionBuild(b *testing.B) {
	const nRows = 200
	scheme := bas.New(0)
	priv, _, err := scheme.KeyGen(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]Row, nRows)
	ops := make([][]sigagg.Operand, nRows)
	for i := range rows {
		attrs := [][]byte{[]byte(fmt.Sprintf("a-%d", i)), []byte(fmt.Sprintf("b-%d", i))}
		sigs, err := SignRecords(sigagg.NewPool(scheme, 1), priv, []uint64{uint64(i + 1)}, [][][]byte{attrs}, []int64{100})
		if err != nil {
			b.Fatal(err)
		}
		if ops[i], err = sigagg.PrepareAll(sigagg.FolderFor(scheme), sigs[0]); err != nil {
			b.Fatal(err)
		}
		rows[i] = Row{RID: uint64(i + 1), TS: 100, Values: attrs[1:]}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(scheme, []int{1}, rows, ops); err != nil {
			b.Fatal(err)
		}
	}
}
