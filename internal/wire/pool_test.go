package wire

import (
	"bytes"
	"testing"
)

func TestAppendEncodersMatchAndPoolRoundTrips(t *testing.T) {
	sys := system(t, 20)
	msg, err := sys.DA.Update(100, [][]byte{[]byte("pooled")}, 50)
	if err != nil {
		t.Fatal(err)
	}
	fresh := AppendUpdateMsg(nil, msg)
	buf := GetBuffer()
	pooled := AppendUpdateMsg(buf, msg)
	if !bytes.Equal(fresh, pooled) {
		t.Fatal("pooled AppendUpdateMsg differs from a fresh buffer's")
	}
	if _, err := DecodeUpdateMsg(pooled); err != nil {
		t.Fatalf("decode pooled encoding: %v", err)
	}
	PutBuffer(pooled)

	ans, err := sys.QS.Query(10, 120)
	if err != nil {
		t.Fatal(err)
	}
	leaf := &Composite{Outer: ans.Chain}
	freshA, err := AppendCompositeCore(nil, leaf)
	if err != nil {
		t.Fatal(err)
	}
	buf2 := GetBuffer()
	pooledA, err := AppendCompositeCore(buf2, leaf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(freshA, pooledA) {
		t.Fatal("pooled AppendCompositeCore differs from a fresh buffer's")
	}
	got, err := DecodeComposite(AppendRelTails(pooledA, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Outer.Records) != len(ans.Chain.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(got.Outer.Records), len(ans.Chain.Records))
	}
	PutBuffer(pooledA)

	// A recycled buffer must start empty and produce identical bytes.
	again := AppendUpdateMsg(GetBuffer(), msg)
	if !bytes.Equal(fresh, again) {
		t.Fatal("recycled buffer produced different encoding")
	}
	PutBuffer(again)
}

func BenchmarkAppendCompositeCorePooled(b *testing.B) {
	sys := system(b, 100)
	ans, err := sys.QS.Query(10, 500)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := AppendCompositeCore(GetBuffer(), &Composite{Outer: ans.Chain})
		if err != nil {
			b.Fatal(err)
		}
		PutBuffer(buf)
	}
}

func BenchmarkAppendCompositeCoreFresh(b *testing.B) {
	sys := system(b, 100)
	ans, err := sys.QS.Query(10, 500)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AppendCompositeCore(nil, &Composite{Outer: ans.Chain}); err != nil {
			b.Fatal(err)
		}
	}
}
