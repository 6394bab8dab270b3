package chain

import (
	"fmt"
	"testing"

	"authdb/internal/sigagg"
	"authdb/internal/sigagg/xortest"
)

func BenchmarkDigest(b *testing.B) {
	r := &Record{RID: 1, Key: 10, Attrs: [][]byte{make([]byte, 480)}, TS: 5}
	left, right := Ref{Key: 5, RID: 2}, Ref{Key: 15, RID: 3}
	b.SetBytes(512)
	for i := 0; i < b.N; i++ {
		Digest(r, left, right)
	}
}

func BenchmarkVerify100(b *testing.B) {
	scheme := xortest.New()
	priv, pub, err := scheme.KeyGen(nil)
	if err != nil {
		b.Fatal(err)
	}
	const n = 100
	recs := make([]*Record, n)
	for i := range recs {
		recs[i] = &Record{RID: uint64(i + 1), Key: int64(i+1) * 10,
			Attrs: [][]byte{[]byte(fmt.Sprintf("p-%d", i))}, TS: 1}
	}
	sigs := make([]sigagg.Signature, n)
	for i, r := range recs {
		left, right := MinRef, MaxRef
		if i > 0 {
			left = recs[i-1].Ref()
		}
		if i < n-1 {
			right = recs[i+1].Ref()
		}
		d := Digest(r, left, right)
		sigs[i], err = scheme.Sign(priv, d[:])
		if err != nil {
			b.Fatal(err)
		}
	}
	agg, err := scheme.AggregateInto(nil, sigs)
	if err != nil {
		b.Fatal(err)
	}
	a := &Answer{Lo: 1, Hi: 10_000, Records: recs, Left: MinRef, Right: MaxRef, Agg: agg}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(scheme, pub, a); err != nil {
			b.Fatal(err)
		}
	}
}
